#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Relational layer for sensor networks.
//!
//! Declarative queries over a WSN view the network as one or more *sensor
//! relations* (SENS-Join paper, §III): conceptually a relation with one
//! attribute per sensor of the nodes and one tuple per node. This crate
//! provides the data model the other crates share:
//!
//! * [`NodeId`] — a node, and so the origin of the tuples it contributes,
//! * [`AttrType`] / [`Attribute`] / [`Schema`] — typed, *sized* schemas.
//!   Sizes matter: the paper's cost model is driven by how many bytes a tuple
//!   occupies on the wire (attributes default to 2 bytes, §IV-B),
//! * [`SensorRelation`] — a named schema plus a membership rule mapping nodes
//!   to tuples (homogeneous networks have one relation; heterogeneous
//!   networks partition nodes into several, §III).
//!
//! A tuple itself is its origin and one `f64` per attribute of the schema,
//! in schema order — `(NodeId, Vec<f64>)` — the form the join engines take.
//!
//! # Example
//!
//! ```
//! use sensjoin_relation::{AttrType, Attribute, NodeId, Schema, SensorRelation};
//!
//! let schema = Schema::new(
//!     "Sensors",
//!     vec![
//!         Attribute::new("x", AttrType::Meters),
//!         Attribute::new("y", AttrType::Meters),
//!         Attribute::new("temp", AttrType::Celsius),
//!     ],
//! );
//! assert_eq!(schema.wire_size(), 6); // 3 attributes x 2 bytes
//! let tuple = (NodeId(4), vec![12.0, 40.0, 21.5]);
//! assert_eq!(tuple.1[schema.index_of("temp").unwrap()], 21.5);
//! let hot = SensorRelation::over_nodes(schema, [NodeId(4)]);
//! assert!(hot.contains(tuple.0) && !hot.contains(NodeId(5)));
//! ```

mod schema;

pub use schema::{AttrType, Attribute, Schema};

/// Identifier of a sensor node. The base station is conventionally node 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A sensor relation: a schema plus a rule deciding which nodes contribute.
///
/// In the paper's terminology, "a node belongs to a sensor relation R if it
/// contributes a tuple T to R" (§III). In a homogeneous network the rule is
/// `Membership::All`; heterogeneous networks restrict by explicit node sets.
#[derive(Debug, Clone)]
pub struct SensorRelation {
    schema: Schema,
    membership: Membership,
}

/// Which nodes belong to a relation.
#[derive(Debug, Clone, Default)]
pub enum Membership {
    /// Every node in the network contributes a tuple.
    #[default]
    All,
    /// Only the listed nodes contribute (heterogeneous network).
    Nodes(std::collections::BTreeSet<NodeId>),
}

impl SensorRelation {
    /// Creates a homogeneous relation: every node contributes.
    pub fn homogeneous(schema: Schema) -> Self {
        Self {
            schema,
            membership: Membership::All,
        }
    }

    /// Creates a relation restricted to the given nodes.
    pub fn over_nodes(schema: Schema, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        Self {
            schema,
            membership: Membership::Nodes(nodes.into_iter().collect()),
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The relation's name (shorthand for `schema().name()`).
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Whether `node` belongs to this relation.
    pub fn contains(&self, node: NodeId) -> bool {
        match &self.membership {
            Membership::All => true,
            Membership::Nodes(set) => set.contains(&node),
        }
    }

    /// The membership rule.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(
            "Sensors",
            vec![
                Attribute::new("temp", AttrType::Celsius),
                Attribute::new("hum", AttrType::Percent),
            ],
        )
    }

    #[test]
    fn homogeneous_contains_everything() {
        let r = SensorRelation::homogeneous(schema());
        assert!(r.contains(NodeId(0)));
        assert!(r.contains(NodeId(99_999)));
        assert_eq!(r.name(), "Sensors");
    }

    #[test]
    fn restricted_membership() {
        let r = SensorRelation::over_nodes(schema(), [NodeId(1), NodeId(3)]);
        assert!(r.contains(NodeId(1)));
        assert!(!r.contains(NodeId(2)));
        assert!(r.contains(NodeId(3)));
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(7).to_string(), "n7");
    }
}
