//! The deployed sensor network: simulator + data + relation catalog.

use sensjoin_field::{generate_readings, Area, FieldSampler, FieldSpec, Placement};
use sensjoin_query::{CompileError, CompiledQuery, Query};
use sensjoin_relation::{AttrType, Attribute, NodeId, Schema, SensorRelation};
use sensjoin_sim::{BaseChoice, EnergyModel, Network, NetworkBuilder, NetworkError, RadioConfig};

/// Errors building or querying a [`SensorNetwork`].
#[derive(Debug)]
pub enum SensorNetworkError {
    /// Underlying network construction failed.
    Network(NetworkError),
    /// Supplied external data has inconsistent dimensions, a non-finite
    /// value, or a position outside the area.
    DataShape(String),
    /// A query referenced a relation missing from the catalog.
    UnknownRelation(String),
    /// Query compilation failed.
    Compile(CompileError),
    /// A relation schema referenced an attribute the nodes do not sense.
    UnknownAttribute(String),
}

impl std::fmt::Display for SensorNetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SensorNetworkError::Network(e) => write!(f, "{e}"),
            SensorNetworkError::UnknownRelation(r) => write!(f, "unknown relation {r:?}"),
            SensorNetworkError::Compile(e) => write!(f, "{e}"),
            SensorNetworkError::UnknownAttribute(a) => {
                write!(f, "nodes do not sense attribute {a:?}")
            }
            SensorNetworkError::DataShape(msg) => write!(f, "bad external data: {msg}"),
        }
    }
}

impl std::error::Error for SensorNetworkError {}

impl From<NetworkError> for SensorNetworkError {
    fn from(e: NetworkError) -> Self {
        SensorNetworkError::Network(e)
    }
}

impl From<CompileError> for SensorNetworkError {
    fn from(e: CompileError) -> Self {
        SensorNetworkError::Compile(e)
    }
}

/// Guesses the physical type of a generated attribute from its name; used
/// when building the master schema from field specs.
pub fn attr_type_for(name: &str) -> AttrType {
    let lower = name.to_ascii_lowercase();
    if lower.starts_with("temp") {
        AttrType::Celsius
    } else if lower.starts_with("hum") {
        AttrType::Percent
    } else if lower.starts_with("pres") {
        AttrType::Hectopascal
    } else if lower.starts_with("light") {
        AttrType::Lux
    } else if lower.starts_with("volt") {
        AttrType::Volts
    } else if lower == "x" || lower == "y" {
        AttrType::Meters
    } else {
        AttrType::Raw(2)
    }
}

/// A deployed, data-carrying sensor network.
///
/// Combines the simulator [`Network`] with the snapshot of sensor readings
/// (one row per node, aligned to the *master schema* — positions plus every
/// generated attribute) and the relation catalog mapping query relation
/// names to node groups (§III: one relation for homogeneous networks,
/// several for heterogeneous ones).
#[derive(Debug, Clone)]
pub struct SensorNetwork {
    net: Network,
    master: Schema,
    readings: Vec<Vec<f64>>,
    catalog: Vec<SensorRelation>,
    /// The generator [`SensorNetwork::resample`] draws with, made on its
    /// first call: derived state, never checkpointed.
    sampler: Option<FieldSampler>,
}

impl SensorNetwork {
    /// The underlying simulator network.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Mutable access (protocols charge transmissions through this).
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// The base station.
    pub fn base(&self) -> NodeId {
        self.net.base()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.net.len()
    }

    /// Whether the deployment has no nodes (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.net.is_empty()
    }

    /// The master schema (positions + every sensed attribute).
    pub fn master_schema(&self) -> &Schema {
        &self.master
    }

    /// The relation catalog.
    pub fn catalog(&self) -> &[SensorRelation] {
        &self.catalog
    }

    /// Looks up a relation by name.
    pub fn relation(&self, name: &str) -> Option<&SensorRelation> {
        self.catalog.iter().find(|r| r.name() == name)
    }

    /// Whether `node` belongs to the relation called `name`.
    pub fn belongs(&self, node: NodeId, name: &str) -> bool {
        self.relation(name).is_some_and(|r| r.contains(node))
    }

    /// The raw master-aligned readings of a node.
    pub fn readings(&self, node: NodeId) -> &[f64] {
        &self.readings[node.0 as usize]
    }

    /// The simulator network, mutably, beside every node's readings — for a
    /// wave whose callbacks read the snapshot while the wave charges.
    pub(crate) fn net_mut_and_readings(&mut self) -> (&mut Network, &[Vec<f64>]) {
        (&mut self.net, &self.readings)
    }

    /// Index of an attribute in the master schema.
    pub fn master_index(&self, name: &str) -> Option<usize> {
        self.master.index_of(name)
    }

    fn master_column(&self, attr: &Attribute) -> usize {
        self.master
            .index_of(attr.name())
            .unwrap_or_else(|| panic!("unsensed attribute {:?}", attr.name()))
    }

    /// `schema`'s attributes as master-schema columns. Names are resolved
    /// here, once; per-row code indexes [`SensorNetwork::readings`] with the
    /// result.
    ///
    /// # Panics
    /// Panics if the schema references an attribute the nodes do not sense —
    /// catalog construction validates this.
    pub fn master_columns(&self, schema: &Schema) -> Vec<usize> {
        let attrs = schema.attrs().iter();
        attrs.map(|a| self.master_column(a)).collect()
    }

    /// Values of `node` aligned to `schema` (resolved by attribute name).
    ///
    /// # Panics
    /// Like [`SensorNetwork::master_columns`].
    pub fn values_for(&self, node: NodeId, schema: &Schema) -> Vec<f64> {
        let (row, attrs) = (self.readings(node), schema.attrs().iter());
        attrs.map(|a| row[self.master_column(a)]).collect()
    }

    /// Observed bounds of attribute `name` across all nodes, widened by 5 %
    /// of the span on each side — emulating the setup-time range estimation
    /// of §V-B ("reasonably good estimates are sufficient").
    pub fn attr_bounds(&self, name: &str) -> Option<(f64, f64)> {
        let i = self.master.index_of(name)?;
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for row in &self.readings {
            lo = lo.min(row[i]);
            hi = hi.max(row[i]);
        }
        let margin = 0.05 * (hi - lo).max(1e-9);
        Some((lo - margin, hi + margin))
    }

    /// Compiles a parsed query against the catalog.
    pub fn compile(&self, query: &Query) -> Result<CompiledQuery, SensorNetworkError> {
        let schemas: Vec<Schema> = query
            .from
            .iter()
            .map(|item| {
                self.relation(&item.relation)
                    .map(|r| r.schema().clone())
                    .ok_or_else(|| SensorNetworkError::UnknownRelation(item.relation.clone()))
            })
            .collect::<Result<_, _>>()?;
        Ok(CompiledQuery::compile(query, &schemas)?)
    }

    /// Replaces the snapshot with freshly generated readings (used by
    /// `SAMPLE PERIOD` continuous executions: each period reads a new
    /// snapshot). Only the columns named by `specs` are written.
    ///
    /// The readings are bit for bit those of
    /// [`generate_readings`](sensjoin_field::generate_readings) at the
    /// node positions. The deployment keeps each spec's wave sums keyed by
    /// its correlation length and its field seed (`seed` and its index, see
    /// [`FieldSampler`]), so a call that changes neither for a spec — the
    /// same field with new noise, mean, amplitude or coupling — evaluates no
    /// cosine for it. From the second call in a row at one `seed` with the
    /// same specs noisy, it also keeps the noise stream's Box–Muller draws,
    /// so the calls after that draw no noise afresh: they only rescale it.
    pub fn resample(&mut self, specs: &[FieldSpec], seed: u64) {
        let topology = self.net.topology();
        let sampler = self.sampler.get_or_insert_with(|| {
            FieldSampler::new(topology.nodes().map(|n| topology.position(n)).collect())
        });
        let column = |s: &FieldSpec| self.master.index_of(&s.name);
        let columns: Vec<Option<usize>> = specs.iter().map(column).collect();
        let readings = &mut self.readings;
        sampler.draw(specs, seed, |node, row| {
            for (column, &v) in columns.iter().zip(row) {
                if let Some(i) = *column {
                    readings[node][i] = v;
                }
            }
        });
    }
}

/// Explicit deployment data (e.g. a real trace such as the Intel Lab
/// readings the paper cites): node positions plus one reading per node and
/// named attribute. Supplied via [`SensorNetworkBuilder::data`], it replaces
/// the synthetic placement and field generation.
#[derive(Debug, Clone)]
pub struct ExternalData {
    /// One position per node.
    pub positions: Vec<sensjoin_field::Position>,
    /// Named attributes with their physical types (positions excluded; `x`
    /// and `y` are always derived from `positions`).
    pub attrs: Vec<(String, sensjoin_relation::AttrType)>,
    /// `rows[node][attr]` readings, parallel to `positions` and `attrs`.
    pub rows: Vec<Vec<f64>>,
}

/// Builder for [`SensorNetwork`].
#[derive(Debug, Clone)]
pub struct SensorNetworkBuilder {
    area: Area,
    placement: Placement,
    seed: u64,
    fields: Vec<FieldSpec>,
    radio: RadioConfig,
    energy: EnergyModel,
    base: BaseChoice,
    relation_name: String,
    relations: Option<Vec<SensorRelation>>,
    data: Option<ExternalData>,
}

impl Default for SensorNetworkBuilder {
    fn default() -> Self {
        Self {
            area: Area::paper_default(),
            placement: Placement::UniformRandom { n: 1500 },
            seed: 1,
            fields: sensjoin_field::presets::indoor_climate(),
            radio: RadioConfig::paper_default(),
            energy: EnergyModel::micaz(),
            base: BaseChoice::NearestCenter,
            relation_name: "Sensors".to_owned(),
            relations: None,
            data: None,
        }
    }
}

impl SensorNetworkBuilder {
    /// Starts from the paper's default experiment setting (1500 nodes,
    /// 1050 m × 1050 m, 50 m range, 48-byte packets, indoor climate data).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the deployment area.
    pub fn area(mut self, area: Area) -> Self {
        self.area = area;
        self
    }

    /// Sets the placement strategy.
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the seed for placement and data generation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the generated attributes.
    pub fn fields(mut self, fields: Vec<FieldSpec>) -> Self {
        self.fields = fields;
        self
    }

    /// Sets the radio configuration.
    pub fn radio(mut self, radio: RadioConfig) -> Self {
        self.radio = radio;
        self
    }

    /// Sets the energy model.
    pub fn energy(mut self, energy: EnergyModel) -> Self {
        self.energy = energy;
        self
    }

    /// Sets the base-station choice.
    pub fn base(mut self, base: BaseChoice) -> Self {
        self.base = base;
        self
    }

    /// Renames the default homogeneous relation (default `"Sensors"`).
    pub fn relation_name(mut self, name: impl Into<String>) -> Self {
        self.relation_name = name.into();
        self
    }

    /// Supplies an explicit (possibly heterogeneous) relation catalog
    /// instead of the default single homogeneous relation.
    pub fn relations(mut self, relations: Vec<SensorRelation>) -> Self {
        self.relations = Some(relations);
        self
    }

    /// Supplies explicit positions and readings (a real trace) instead of
    /// synthetic placement and field generation. `placement`, `fields` and
    /// the data part of `seed` are ignored; the area must cover the
    /// positions.
    pub fn data(mut self, data: ExternalData) -> Self {
        self.data = Some(data);
        self
    }

    /// Builds the deployed network: places nodes, generates (or adopts)
    /// readings, wires the topology and routing tree.
    pub fn build(self) -> Result<SensorNetwork, SensorNetworkError> {
        let (positions, attr_list, generated) = match &self.data {
            Some(data) => {
                if data.rows.len() != data.positions.len() {
                    return Err(SensorNetworkError::DataShape(format!(
                        "{} rows for {} positions",
                        data.rows.len(),
                        data.positions.len()
                    )));
                }
                for (i, row) in data.rows.iter().enumerate() {
                    if row.len() != data.attrs.len() {
                        return Err(SensorNetworkError::DataShape(format!(
                            "row {i} has {} values for {} attributes",
                            row.len(),
                            data.attrs.len()
                        )));
                    }
                    if let Some(j) = row.iter().position(|v| !v.is_finite()) {
                        return Err(SensorNetworkError::DataShape(format!(
                            "row {i}: reading {} of {:?} is not finite",
                            row[j], data.attrs[j].0
                        )));
                    }
                }
                // A NaN coordinate is in no range, so this rejects it too.
                let (xs, ys) = (0.0..=self.area.width, 0.0..=self.area.height);
                if let Some((i, p)) = data
                    .positions
                    .iter()
                    .enumerate()
                    .find(|(_, p)| !(xs.contains(&p.x) && ys.contains(&p.y)))
                {
                    return Err(SensorNetworkError::DataShape(format!(
                        "position {i} ({}, {}) is outside the {} m × {} m area",
                        p.x, p.y, self.area.width, self.area.height
                    )));
                }
                (
                    data.positions.clone(),
                    data.attrs.clone(),
                    data.rows.clone(),
                )
            }
            None => {
                let positions = self.placement.generate(self.area, self.seed);
                let generated = generate_readings(&positions, &self.fields, self.seed ^ 0xF1E17D);
                let attrs = self
                    .fields
                    .iter()
                    .map(|spec| (spec.name.clone(), attr_type_for(&spec.name)))
                    .collect();
                (positions, attrs, generated)
            }
        };
        let mut attrs = vec![
            Attribute::new("x", AttrType::Meters),
            Attribute::new("y", AttrType::Meters),
        ];
        for (name, ty) in &attr_list {
            attrs.push(Attribute::new(name, *ty));
        }
        let master = Schema::new("Master", attrs);
        let readings: Vec<Vec<f64>> = positions
            .iter()
            .zip(&generated)
            .map(|(p, row)| {
                let mut r = Vec::with_capacity(2 + row.len());
                r.push(p.x);
                r.push(p.y);
                r.extend_from_slice(row);
                r
            })
            .collect();
        let catalog = match self.relations {
            Some(rels) => {
                for rel in &rels {
                    for a in rel.schema().attrs() {
                        if master.index_of(a.name()).is_none() {
                            return Err(SensorNetworkError::UnknownAttribute(a.name().to_owned()));
                        }
                    }
                }
                rels
            }
            None => {
                // Homogeneous: one relation exposing every master attribute.
                let schema = Schema::new(self.relation_name.clone(), master.attrs().to_vec());
                vec![SensorRelation::homogeneous(schema)]
            }
        };
        let net = NetworkBuilder::new()
            .radio(self.radio)
            .energy(self.energy)
            .base(self.base)
            .build(positions, self.area)?;
        Ok(SensorNetwork {
            net,
            master,
            readings,
            catalog,
            sampler: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensjoin_field::presets;
    use sensjoin_query::parse;

    fn small() -> SensorNetwork {
        SensorNetworkBuilder::new()
            .area(Area::new(300.0, 300.0))
            .placement(Placement::UniformRandom { n: 100 })
            .fields(presets::indoor_climate())
            .seed(7)
            .build()
            .unwrap()
    }

    #[test]
    fn master_schema_and_readings() {
        let s = small();
        assert_eq!(s.master_schema().attrs()[0].name(), "x");
        assert_eq!(s.master_schema().index_of("temp"), Some(2));
        assert_eq!(s.readings(NodeId(5)).len(), s.master_schema().arity());
        // Positions are readings too.
        let p = s.net().topology().position(NodeId(5));
        assert_eq!(s.readings(NodeId(5))[0], p.x);
        assert_eq!(s.readings(NodeId(5))[1], p.y);
    }

    #[test]
    fn homogeneous_catalog() {
        let s = small();
        assert_eq!(s.catalog().len(), 1);
        assert!(s.belongs(NodeId(0), "Sensors"));
        assert!(!s.belongs(NodeId(0), "Other"));
    }

    #[test]
    fn compile_against_catalog() {
        let s = small();
        let q = parse(
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.1 ONCE",
        )
        .unwrap();
        let cq = s.compile(&q).unwrap();
        assert_eq!(cq.num_relations(), 2);
        let bad = parse("SELECT A.t, B.t FROM Nope A, Nope B ONCE").unwrap();
        assert!(matches!(
            s.compile(&bad),
            Err(SensorNetworkError::UnknownRelation(_))
        ));
    }

    #[test]
    fn values_projection() {
        let s = small();
        let schema = s.catalog()[0].schema().clone();
        let vals = s.values_for(NodeId(3), &schema);
        assert_eq!(vals.len(), schema.arity());
        assert_eq!(vals[2], s.readings(NodeId(3))[2]);
    }

    #[test]
    fn attr_bounds_cover_data() {
        let s = small();
        let (lo, hi) = s.attr_bounds("temp").unwrap();
        let i = s.master_index("temp").unwrap();
        for n in 0..s.len() as u32 {
            let v = s.readings(NodeId(n))[i];
            assert!(lo < v && v < hi);
        }
        assert!(s.attr_bounds("nope").is_none());
    }

    #[test]
    fn heterogeneous_catalog_validated() {
        let bad_schema = Schema::new("Weird", vec![Attribute::new("ghost", AttrType::Lux)]);
        let err = SensorNetworkBuilder::new()
            .area(Area::new(200.0, 200.0))
            .placement(Placement::UniformRandom { n: 20 })
            .relations(vec![SensorRelation::homogeneous(bad_schema)])
            .build();
        assert!(matches!(err, Err(SensorNetworkError::UnknownAttribute(_))));
    }

    #[test]
    fn attr_type_heuristics() {
        assert_eq!(attr_type_for("temp"), AttrType::Celsius);
        assert_eq!(attr_type_for("temperature"), AttrType::Celsius);
        assert_eq!(attr_type_for("humidity"), AttrType::Percent);
        assert_eq!(attr_type_for("pressure"), AttrType::Hectopascal);
        assert_eq!(attr_type_for("light"), AttrType::Lux);
        assert_eq!(attr_type_for("voltage"), AttrType::Volts);
        assert_eq!(attr_type_for("x"), AttrType::Meters);
        assert_eq!(attr_type_for("whatever"), AttrType::Raw(2));
    }

    /// A network's kept wave sums change no reading: after a drift sequence
    /// (noise, new seed, new correlation length), the network, a clone taken
    /// midway and a twin that draws only the last field cold all agree bit
    /// for bit.
    #[test]
    fn kept_wave_sums_change_no_reading() {
        let drift = |noise: f64, stretch: f64| -> Vec<FieldSpec> {
            let mut specs = presets::indoor_climate();
            for s in &mut specs {
                s.noise *= noise;
            }
            specs[0].correlation_length *= stretch;
            specs
        };
        let steps = [
            (drift(1.0, 1.0), 5),
            (drift(1.25, 1.0), 5),
            (drift(0.5, 1.0), 6),
            (drift(0.5, 2.0), 6),
            (drift(1.5, 2.0), 6),
        ];
        let mut s = small();
        let mut clone: Option<SensorNetwork> = None;
        for (i, (specs, seed)) in steps.iter().enumerate() {
            s.resample(specs, *seed);
            if let Some(c) = &mut clone {
                c.resample(specs, *seed);
            }
            if i == 1 {
                clone = Some(s.clone());
            }
        }
        let mut twin = small();
        let (specs, seed) = steps.last().unwrap();
        twin.resample(specs, *seed);
        let bits = |s: &SensorNetwork| -> Vec<u64> {
            let nodes = 0..s.len() as u32;
            nodes
                .flat_map(|n| s.readings(NodeId(n)).to_vec())
                .map(f64::to_bits)
                .collect()
        };
        assert_eq!(bits(&s), bits(&twin));
        assert_eq!(bits(&clone.unwrap()), bits(&twin));
    }

    #[test]
    fn resample_changes_data() {
        let mut s = small();
        let before = s.readings(NodeId(1)).to_vec();
        s.resample(&presets::indoor_climate(), 999);
        let after = s.readings(NodeId(1));
        // Positions unchanged, sensed values changed.
        assert_eq!(before[0], after[0]);
        assert_eq!(before[1], after[1]);
        assert_ne!(before[2], after[2]);
    }
}
