//! Header types and field references.
//!
//! A [`HeaderType`] is an ordered list of fixed-width fields, e.g. `ethernet`
//! = (dst_mac:48, src_mac:48, ether_type:16). Dejavu restricts headers to
//! whole-byte total widths so that `(header_type, offset)` parser vertices
//! have well-defined byte offsets.
//!
//! A [`FieldRef`] names a field either inside a parsed header instance
//! (`ipv4.dst_addr`) or in per-packet metadata (`meta.egress_port`). The
//! distinguished pseudo-header name [`FieldRef::META`] addresses metadata;
//! everything else refers to the unique instance of that header type in the
//! parsed representation.

use crate::error::{IrError, Result};
use std::fmt;

/// One fixed-width field inside a header type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name, unique within its header type.
    pub name: String,
    /// Width in bits, `1..=128`.
    pub bits: u16,
}

/// A named header type: an ordered sequence of fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderType {
    /// Type name, e.g. `"ipv4"`. Unique within a program (and, after
    /// merging, within the merged program — see `dejavu-core`).
    pub name: String,
    /// Ordered fields; bit offsets follow declaration order.
    pub fields: Vec<FieldDef>,
}

impl HeaderType {
    /// Creates a header type, validating field widths and name uniqueness,
    /// and requiring the total width to be a whole number of bytes.
    pub fn new(name: impl Into<String>, fields: Vec<(impl Into<String>, u16)>) -> Result<Self> {
        let name = name.into();
        let fields: Vec<FieldDef> = fields
            .into_iter()
            .map(|(n, bits)| FieldDef {
                name: n.into(),
                bits,
            })
            .collect();
        let ht = HeaderType { name, fields };
        ht.validate()?;
        Ok(ht)
    }

    /// Checks field-width bounds, duplicate field names, and byte alignment
    /// of the total width.
    pub fn validate(&self) -> Result<()> {
        for (i, f) in self.fields.iter().enumerate() {
            if !(1..=128).contains(&f.bits) {
                return Err(IrError::BadFieldWidth {
                    header: self.name.clone(),
                    field: f.name.clone(),
                    bits: f.bits,
                });
            }
            if self.fields[..i].iter().any(|g| g.name == f.name) {
                return Err(IrError::Duplicate {
                    kind: "field",
                    name: format!("{}.{}", self.name, f.name),
                });
            }
        }
        if !self.total_bits().is_multiple_of(8) {
            return Err(IrError::Invalid(format!(
                "header type {} is {} bits, not byte-aligned",
                self.name,
                self.total_bits()
            )));
        }
        Ok(())
    }

    /// Total width in bits.
    pub fn total_bits(&self) -> u32 {
        self.fields.iter().map(|f| u32::from(f.bits)).sum()
    }

    /// Total width in whole bytes.
    pub fn total_bytes(&self) -> u32 {
        self.total_bits() / 8
    }

    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldDef> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Bit offset of a field from the start of the header.
    pub fn field_bit_offset(&self, name: &str) -> Option<u32> {
        let mut off = 0u32;
        for f in &self.fields {
            if f.name == name {
                return Some(off);
            }
            off += u32::from(f.bits);
        }
        None
    }
}

/// A reference to a field: `header.field` or `meta.field`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldRef {
    /// Header type name, or [`FieldRef::META`] for packet metadata.
    pub header: String,
    /// Field name within the header/metadata space.
    pub field: String,
}

impl FieldRef {
    /// Pseudo-header name addressing per-packet metadata.
    pub const META: &'static str = "meta";

    /// Creates a reference to `header.field`.
    pub fn new(header: impl Into<String>, field: impl Into<String>) -> Self {
        FieldRef {
            header: header.into(),
            field: field.into(),
        }
    }

    /// Creates a reference to metadata field `meta.field`.
    pub fn meta(field: impl Into<String>) -> Self {
        FieldRef {
            header: Self::META.to_string(),
            field: field.into(),
        }
    }

    /// True if this reference addresses metadata rather than a parsed header.
    pub fn is_meta(&self) -> bool {
        self.header == Self::META
    }
}

impl fmt::Display for FieldRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.header, self.field)
    }
}

/// Convenience constructor: `fref("ipv4", "dst_addr")`.
pub fn fref(header: &str, field: &str) -> FieldRef {
    FieldRef::new(header, field)
}

/// A field reference borrowed from the IR: what a [`FieldRef`] names,
/// without owning it, for the checks that read a program without copying
/// it. A register access names the pseudo-field `reg::<name>.*`
/// ([`crate::action::register_field`]); a view keeps the register name in
/// `header` and sets `register` instead of building that string, and
/// [`FieldView::of`] files a `reg::`-prefixed [`FieldRef`] the same way, so
/// two views are equal exactly when the references they stand for are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FieldView<'a> {
    /// Header type name, [`FieldRef::META`], or the register name.
    pub header: &'a str,
    /// Field name, or `"*"` for the whole header (or register).
    pub field: &'a str,
    /// True for a register pseudo-field.
    pub register: bool,
}

impl<'a> FieldView<'a> {
    /// A view of `fr`.
    pub fn of(fr: &'a FieldRef) -> Self {
        match fr.header.strip_prefix("reg::") {
            Some(register) => FieldView {
                header: register,
                field: &fr.field,
                register: true,
            },
            None => FieldView::new(&fr.header, &fr.field),
        }
    }

    /// `header.field`.
    pub fn new(header: &'a str, field: &'a str) -> Self {
        FieldView {
            header,
            field,
            register: false,
        }
    }

    /// The pseudo-field of register array `name`.
    pub fn register(name: &'a str) -> Self {
        FieldView {
            header: name,
            field: "*",
            register: true,
        }
    }

    /// True for packet metadata.
    pub fn is_meta(self) -> bool {
        !self.register && self.header == FieldRef::META
    }

    /// Same namespace, and the same field or a `"*"` wildcard on either
    /// side — the overlap the dependency analysis and the verifier use.
    pub fn overlaps(self, other: FieldView<'_>) -> bool {
        self.register == other.register
            && self.header == other.header
            && (self.field == other.field || self.field == "*" || other.field == "*")
    }

    /// The owned reference.
    pub fn to_field_ref(self) -> FieldRef {
        if self.register {
            FieldRef::new(format!("reg::{}", self.header), self.field)
        } else {
            FieldRef::new(self.header, self.field)
        }
    }
}

impl fmt::Display for FieldView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.register {
            f.write_str("reg::")?;
        }
        write!(f, "{}.{}", self.header, self.field)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eth() -> HeaderType {
        HeaderType::new(
            "ethernet",
            vec![("dst", 48u16), ("src", 48), ("ether_type", 16)],
        )
        .unwrap()
    }

    #[test]
    fn widths_and_offsets() {
        let h = eth();
        assert_eq!(h.total_bits(), 112);
        assert_eq!(h.total_bytes(), 14);
        assert_eq!(h.field_bit_offset("dst"), Some(0));
        assert_eq!(h.field_bit_offset("src"), Some(48));
        assert_eq!(h.field_bit_offset("ether_type"), Some(96));
        assert_eq!(h.field_bit_offset("missing"), None);
        assert_eq!(h.field("src").unwrap().bits, 48);
    }

    #[test]
    fn rejects_duplicate_field() {
        let err = HeaderType::new("h", vec![("a", 8u16), ("a", 8)]).unwrap_err();
        assert!(matches!(err, IrError::Duplicate { .. }));
    }

    #[test]
    fn rejects_zero_width() {
        let err = HeaderType::new("h", vec![("a", 0u16)]).unwrap_err();
        assert!(matches!(err, IrError::BadFieldWidth { .. }));
    }

    #[test]
    fn rejects_unaligned_total() {
        let err = HeaderType::new("h", vec![("a", 4u16)]).unwrap_err();
        assert!(matches!(err, IrError::Invalid(_)));
    }

    #[test]
    fn sub_byte_fields_allowed_when_total_aligned() {
        // IPv4-style: version(4) + ihl(4) = one byte.
        let h = HeaderType::new("v", vec![("version", 4u16), ("ihl", 4)]).unwrap();
        assert_eq!(h.total_bytes(), 1);
    }

    #[test]
    fn fieldref_display_and_meta() {
        let r = fref("ipv4", "ttl");
        assert_eq!(r.to_string(), "ipv4.ttl");
        assert!(!r.is_meta());
        assert!(FieldRef::meta("egress_port").is_meta());
    }
}
