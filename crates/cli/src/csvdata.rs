//! CSV loading of real deployment traces.
//!
//! Format: a header line `x,y,attr1,attr2,...` followed by one line per
//! node. Positions are meters, finite and non-negative; readings are
//! finite; attribute types are inferred from the names (`temp*` → °C,
//! `hum*` → %, `pres*` → hPa, `light*` → lx, `volt*` → V, anything else a
//! raw 2-byte value).

use sensjoin_core::{attr_type_for, ExternalData};
use sensjoin_field::Position;

/// Parses a trace CSV into [`ExternalData`].
pub fn parse_csv(text: &str) -> Result<ExternalData, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines.next().ok_or("empty CSV")?;
    let cols: Vec<&str> = header.split(',').map(str::trim).collect();
    if cols.len() < 3 || !cols[0].eq_ignore_ascii_case("x") || !cols[1].eq_ignore_ascii_case("y") {
        return Err("header must be 'x,y,<attr>,...' with at least one attribute".into());
    }
    let attrs: Vec<(String, sensjoin_relation::AttrType)> = cols[2..]
        .iter()
        .map(|name| ((*name).to_owned(), attr_type_for(name)))
        .collect();
    let mut positions = Vec::new();
    let mut rows = Vec::new();
    for (lineno, line) in lines {
        let cells: Vec<&str> = line.split(',').map(str::trim).collect();
        if cells.len() != cols.len() {
            return Err(format!(
                "line {}: {} cells, expected {}",
                lineno + 1,
                cells.len(),
                cols.len()
            ));
        }
        // `f64::from_str` reads "inf" and "nan"; a trace holds neither.
        let parse = |i: usize| -> Result<f64, String> {
            cells[i]
                .parse()
                .ok()
                .filter(|v: &f64| v.is_finite())
                .ok_or_else(|| format!("line {}: bad number {:?}", lineno + 1, cells[i]))
        };
        let coord = |i: usize| -> Result<f64, String> {
            let v = parse(i)?;
            if v < 0.0 {
                return Err(format!("line {}: negative coordinate {v}", lineno + 1));
            }
            Ok(v)
        };
        positions.push(Position::new(coord(0)?, coord(1)?));
        let row: Result<Vec<f64>, String> = (2..cells.len()).map(parse).collect();
        rows.push(row?);
    }
    if positions.is_empty() {
        return Err("CSV contains no data rows".into());
    }
    Ok(ExternalData {
        positions,
        attrs,
        rows,
    })
}

/// The bounding square of the positions, with a 5 % margin.
pub fn bounding_area(data: &ExternalData) -> sensjoin_field::Area {
    let max_x = data.positions.iter().map(|p| p.x).fold(0.0f64, f64::max);
    let max_y = data.positions.iter().map(|p| p.y).fold(0.0f64, f64::max);
    let side = (max_x.max(max_y) * 1.05).max(1.0);
    sensjoin_field::Area::new(side, side)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
x,y,temp,hum
10.0,20.0,21.5,40.1
30.0,40.0,22.0,39.0

55.5,60.0,20.0,44.4
";

    #[test]
    fn parses_sample() {
        let d = parse_csv(SAMPLE).unwrap();
        assert_eq!(d.positions.len(), 3);
        assert_eq!(d.attrs.len(), 2);
        assert_eq!(d.attrs[0].0, "temp");
        assert_eq!(d.rows[2], vec![20.0, 44.4]);
        let area = bounding_area(&d);
        assert!(area.width >= 60.0);
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_csv("").is_err());
        assert!(parse_csv("a,b,c\n1,2,3\n").is_err()); // header not x,y
        assert!(parse_csv("x,y,temp\n1,2\n").is_err()); // cell count
        assert!(parse_csv("x,y,temp\n1,2,zzz\n").is_err()); // bad number
        assert!(parse_csv("x,y,temp\n").is_err()); // no rows
        for bad in [
            "inf,40,22,39",
            "30,nan,22,39",
            "-30,40,22,39",
            "30,40,nan,39",
        ] {
            let err = parse_csv(&format!("x,y,temp,hum\n10,20,21,40\n{bad}\n")).unwrap_err();
            assert!(err.starts_with("line 3:"), "{bad}: {err}");
        }
    }
}
