//! The bundled sample trace stays loadable and query-able.

use sensjoin::core::{attr_type_for, ExternalData};
use sensjoin::prelude::*;
use sensjoin::relation::AttrType;

fn load_lab_54() -> ExternalData {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/data/lab_54.csv"))
        .expect("bundled sample data exists");
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    assert_eq!(&header[..2], &["x", "y"]);
    let attrs: Vec<(String, AttrType)> = header[2..]
        .iter()
        .map(|n| ((*n).to_owned(), attr_type_for(n)))
        .collect();
    let mut positions = Vec::new();
    let mut rows = Vec::new();
    for line in lines.filter(|l| !l.trim().is_empty()) {
        let cells: Vec<f64> = line
            .split(',')
            .map(|c| c.parse().expect("number"))
            .collect();
        assert_eq!(cells.len(), header.len());
        positions.push(sensjoin::field::Position::new(cells[0], cells[1]));
        rows.push(cells[2..].to_vec());
    }
    ExternalData {
        positions,
        attrs,
        rows,
    }
}

#[test]
fn bundled_trace_loads_and_joins() {
    let data = load_lab_54();
    assert_eq!(data.positions.len(), 54);
    assert_eq!(data.attrs.len(), 4);
    assert_eq!(data.attrs[0], ("temp".to_owned(), AttrType::Celsius));
    let mut snet = SensorNetworkBuilder::new()
        .area(Area::new(45.0, 45.0))
        .data(data)
        .build()
        .expect("builds from external data");
    assert_eq!(snet.len(), 54);
    // Readings come from the file, not the generator.
    let i = snet.master_index("temp").unwrap();
    let t0 = snet.readings(NodeId(0))[i];
    assert!((18.0..25.0).contains(&t0), "lab temperature, got {t0}");
    let cq = snet
        .compile(
            &parse(
                "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                 WHERE A.temp - B.temp > 3.0 \
                 AND distance(A.x, A.y, B.x, B.y) > 20 ONCE",
            )
            .unwrap(),
        )
        .unwrap();
    let ext = ExternalJoin.execute(&mut snet, &cq).unwrap();
    let sj = SensJoin::default().execute(&mut snet, &cq).unwrap();
    assert!(ext.result.same_result(&sj.result));
    assert!(
        !ext.result.is_empty(),
        "the sample data contains hot/cold pairs"
    );
}

#[test]
fn bad_shapes_rejected() {
    let mut data = load_lab_54();
    data.rows.pop();
    let err = SensorNetworkBuilder::new()
        .area(Area::new(45.0, 45.0))
        .data(data)
        .build();
    assert!(matches!(
        err,
        Err(sensjoin::core::SensorNetworkError::DataShape(_))
    ));
    let mut data2 = load_lab_54();
    data2.rows[3].push(1.0);
    let err2 = SensorNetworkBuilder::new()
        .area(Area::new(45.0, 45.0))
        .data(data2)
        .build();
    assert!(matches!(
        err2,
        Err(sensjoin::core::SensorNetworkError::DataShape(_))
    ));
    // Non-finite values and positions outside the area are shape errors
    // too, not a panic in the topology grid.
    let spoil: [fn(&mut ExternalData); 5] = [
        |d| d.positions[7].x = f64::INFINITY,
        |d| d.positions[7].y = f64::NAN,
        |d| d.positions[7].x = -30.0,
        |d| d.positions[7].y = 45.5,
        |d| d.rows[7][1] = f64::NAN,
    ];
    for spoil in spoil {
        let mut data = load_lab_54();
        spoil(&mut data);
        let err = SensorNetworkBuilder::new()
            .area(Area::new(45.0, 45.0))
            .data(data)
            .build();
        assert!(matches!(
            err,
            Err(sensjoin::core::SensorNetworkError::DataShape(_))
        ));
    }
}
