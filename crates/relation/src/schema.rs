//! Schemas: named, typed, sized attribute lists.

/// The physical kind of a sensor attribute.
///
/// Types carry a *unit* (for documentation and data generation) and a *wire
/// width*. The paper assumes two bytes per attribute (§IV-B: "Assuming that
/// each attribute requires two bytes"); every built-in type follows that
/// default, while [`AttrType::Raw`] allows other widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrType {
    /// Position coordinate in meters.
    Meters,
    /// Temperature in degrees Celsius.
    Celsius,
    /// Relative humidity in percent.
    Percent,
    /// Barometric pressure in hectopascal.
    Hectopascal,
    /// Illuminance in lux.
    Lux,
    /// Battery voltage in volts.
    Volts,
    /// A unit-less attribute with an explicit wire width in bytes.
    Raw(u8),
}

impl AttrType {
    /// Wire width of a value of this type, in bytes.
    #[inline]
    pub fn wire_size(self) -> usize {
        match self {
            AttrType::Raw(w) => w as usize,
            _ => 2,
        }
    }

    /// Human-readable unit suffix.
    pub fn unit(self) -> &'static str {
        match self {
            AttrType::Meters => "m",
            AttrType::Celsius => "degC",
            AttrType::Percent => "%",
            AttrType::Hectopascal => "hPa",
            AttrType::Lux => "lx",
            AttrType::Volts => "V",
            AttrType::Raw(_) => "",
        }
    }
}

/// A named attribute with a type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribute {
    name: String,
    ty: AttrType,
}

impl Attribute {
    /// Creates an attribute.
    pub fn new(name: impl Into<String>, ty: AttrType) -> Self {
        Self {
            name: name.into(),
            ty,
        }
    }

    /// The attribute's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attribute's type.
    pub fn ty(&self) -> AttrType {
        self.ty
    }

    /// Wire width in bytes.
    pub fn wire_size(&self) -> usize {
        self.ty.wire_size()
    }
}

/// A relation schema: a name plus an ordered attribute list.
///
/// Attribute names must be unique within a schema; [`Schema::new`] panics
/// otherwise (schemas are built by library code or the query compiler, so a
/// duplicate is a programming error, not an input error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    name: String,
    attrs: Vec<Attribute>,
}

impl Schema {
    /// Creates a schema.
    ///
    /// # Panics
    /// Panics if two attributes share a name.
    pub fn new(name: impl Into<String>, attrs: Vec<Attribute>) -> Self {
        let name = name.into();
        for (i, a) in attrs.iter().enumerate() {
            for b in &attrs[i + 1..] {
                assert_ne!(
                    a.name(),
                    b.name(),
                    "duplicate attribute {:?} in schema {name}",
                    a.name()
                );
            }
        }
        Self { name, attrs }
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attributes in declaration order.
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Index of an attribute by name, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.name() == name)
    }

    /// Total wire size of a tuple conforming to this schema, in bytes.
    pub fn wire_size(&self) -> usize {
        self.attrs.iter().map(Attribute::wire_size).sum()
    }

    /// Builds a derived schema containing only the attributes at `indices`,
    /// in the given order. Used for join-attribute tuples.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema {
            name: self.name.clone(),
            attrs: indices.iter().map(|&i| self.attrs[i].clone()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(
            "Sensors",
            vec![
                Attribute::new("x", AttrType::Meters),
                Attribute::new("y", AttrType::Meters),
                Attribute::new("temp", AttrType::Celsius),
                Attribute::new("id", AttrType::Raw(4)),
            ],
        )
    }

    #[test]
    fn wire_sizes() {
        let s = schema();
        assert_eq!(s.wire_size(), 2 + 2 + 2 + 4);
    }

    #[test]
    fn index_lookup() {
        let s = schema();
        assert_eq!(s.index_of("temp"), Some(2));
        assert_eq!(s.index_of("nope"), None);
    }

    #[test]
    fn projection_preserves_order() {
        let s = schema().project(&[2, 0]);
        assert_eq!(s.attrs()[0].name(), "temp");
        assert_eq!(s.attrs()[1].name(), "x");
        assert_eq!(s.arity(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicate_attribute_panics() {
        Schema::new(
            "S",
            vec![
                Attribute::new("a", AttrType::Celsius),
                Attribute::new("a", AttrType::Celsius),
            ],
        );
    }

    #[test]
    fn units() {
        assert_eq!(AttrType::Celsius.unit(), "degC");
        assert_eq!(AttrType::Raw(3).wire_size(), 3);
    }
}
