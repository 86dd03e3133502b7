//! Match-action tables.
//!
//! A [`TableDef`] is the static shape of a table: its match keys (field +
//! match kind), the set of actions its entries may invoke, a default action
//! for misses, and a declared capacity used by the resource model. Runtime
//! entries live in `dejavu-asic`'s table state, installed by the control
//! plane — exactly as on real hardware, where the P4 program fixes the shape
//! and the driver populates it.

use crate::error::{IrError, Result};
use crate::header::FieldRef;
use crate::value::Value;

/// How a key field is matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchKind {
    /// Exact match (SRAM).
    Exact,
    /// Ternary match with per-entry mask (TCAM).
    Ternary,
    /// Longest-prefix match (TCAM).
    Lpm,
    /// Inclusive range match (TCAM, via range expansion).
    Range,
}

impl MatchKind {
    /// True if this kind requires TCAM rather than SRAM in the resource
    /// model.
    pub fn needs_tcam(self) -> bool {
        !matches!(self, MatchKind::Exact)
    }
}

/// One key of a table: a field reference plus its match kind.
#[derive(Debug, Clone, PartialEq)]
pub struct TableKey {
    /// The matched field.
    pub field: FieldRef,
    /// Match kind.
    pub kind: MatchKind,
}

/// Static definition of a match-action table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDef {
    /// Table name, unique within its program.
    pub name: String,
    /// Match keys, in order.
    pub keys: Vec<TableKey>,
    /// Names of actions entries may invoke.
    pub actions: Vec<String>,
    /// Default action name invoked on a miss (must be in `actions`).
    pub default_action: String,
    /// Constant arguments bound to the default action.
    pub default_action_args: Vec<Value>,
    /// Declared capacity in entries; drives SRAM/TCAM sizing.
    pub size: u32,
}

impl TableDef {
    /// Validates internal consistency (default action is listed, non-zero
    /// size, no duplicate keys).
    pub fn validate(&self) -> Result<()> {
        if !self.actions.contains(&self.default_action) {
            return Err(IrError::Undefined {
                kind: "default action",
                name: format!("{} (table {})", self.default_action, self.name),
            });
        }
        if self.size == 0 {
            return Err(IrError::Invalid(format!(
                "table {} has zero size",
                self.name
            )));
        }
        for (i, k) in self.keys.iter().enumerate() {
            if self.keys[..i]
                .iter()
                .any(|earlier| earlier.field == k.field)
            {
                return Err(IrError::Duplicate {
                    kind: "table key",
                    name: format!("{} (table {})", k.field, self.name),
                });
            }
        }
        Ok(())
    }

    /// True if any key needs TCAM.
    pub fn needs_tcam(&self) -> bool {
        self.keys.iter().any(|k| k.kind.needs_tcam())
    }

    /// Total match key width in bits, given a resolver from field reference
    /// to width. Returns an error for unknown fields.
    pub fn key_bits(&self, width_of: &dyn Fn(&FieldRef) -> Option<u16>) -> Result<u32> {
        let mut total = 0u32;
        for k in &self.keys {
            let w = width_of(&k.field).ok_or_else(|| IrError::Undefined {
                kind: "table key field",
                name: k.field.to_string(),
            })?;
            total += u32::from(w);
        }
        Ok(total)
    }
}

/// A stateful register array declaration (P4 `Register<bit<W>>(size)`).
///
/// Registers hold per-pipelet state that persists across packets — session
/// counters, token buckets, sketches. Cells are `width_bits` wide
/// (`1..=128`) and indexed modulo `size`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterDef {
    /// Array name, unique within its program.
    pub name: String,
    /// Cell width in bits.
    pub width_bits: u16,
    /// Number of cells.
    pub size: u32,
}

impl RegisterDef {
    /// Validates width and size bounds.
    pub fn validate(&self) -> Result<()> {
        if !(1..=128).contains(&self.width_bits) {
            return Err(IrError::BadFieldWidth {
                header: format!("reg::{}", self.name),
                field: "cell".into(),
                bits: self.width_bits,
            });
        }
        if self.size == 0 {
            return Err(IrError::Invalid(format!(
                "register {} has zero size",
                self.name
            )));
        }
        Ok(())
    }

    /// SRAM bits the array occupies.
    pub fn total_bits(&self) -> u64 {
        u64::from(self.width_bits) * u64::from(self.size)
    }
}

/// A runtime entry installed into a table by the control plane.
///
/// Match data layout parallels the table's key list: one [`KeyMatch`] per
/// key. Priority orders ternary/range entries (higher wins).
#[derive(Debug, Clone, PartialEq)]
pub struct TableEntry {
    /// Per-key match specifications, same order as `TableDef::keys`.
    pub matches: Vec<KeyMatch>,
    /// Action to run on hit.
    pub action: String,
    /// Runtime arguments bound to the action's parameters.
    pub action_args: Vec<Value>,
    /// Priority for ternary/range arbitration; higher wins. Exact tables
    /// ignore it.
    pub priority: i32,
}

/// Match specification for a single key within an entry.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyMatch {
    /// Value must equal exactly.
    Exact(Value),
    /// `(value, mask)`: matches when `key & mask == value & mask`.
    Ternary(Value, Value),
    /// `(prefix, prefix_len)`: longest-prefix match.
    Lpm(Value, u16),
    /// Inclusive `[lo, hi]` range.
    Range(Value, Value),
    /// Wildcard (matches anything).
    Any,
}

impl KeyMatch {
    /// Does `v` satisfy this match specification?
    pub fn matches(&self, v: Value) -> bool {
        match self {
            KeyMatch::Exact(e) => v == *e,
            KeyMatch::Ternary(val, mask) => v.and(*mask) == val.and(*mask),
            KeyMatch::Lpm(prefix, len) => {
                if *len == 0 {
                    return true;
                }
                let shift = u32::from(v.bits().saturating_sub(*len));
                v.shr(shift) == prefix.shr(shift)
            }
            KeyMatch::Range(lo, hi) => v.raw() >= lo.raw() && v.raw() <= hi.raw(),
            KeyMatch::Any => true,
        }
    }

    /// Prefix length used to order LPM entries; `None` for other kinds.
    pub fn lpm_len(&self) -> Option<u16> {
        match self {
            KeyMatch::Lpm(_, len) => Some(*len),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::fref;

    fn acl() -> TableDef {
        TableDef {
            name: "acl".into(),
            keys: vec![
                TableKey {
                    field: fref("ipv4", "src_addr"),
                    kind: MatchKind::Ternary,
                },
                TableKey {
                    field: fref("ipv4", "dst_addr"),
                    kind: MatchKind::Lpm,
                },
            ],
            actions: vec!["permit".into(), "deny".into()],
            default_action: "permit".into(),
            default_action_args: vec![],
            size: 1024,
        }
    }

    #[test]
    fn validate_ok_and_tcam() {
        let t = acl();
        t.validate().unwrap();
        assert!(t.needs_tcam());
    }

    #[test]
    fn validate_rejects_bad_default() {
        let mut t = acl();
        t.default_action = "nope".into();
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_size() {
        let mut t = acl();
        t.size = 0;
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_duplicate_key() {
        let mut t = acl();
        t.keys.push(TableKey {
            field: fref("ipv4", "src_addr"),
            kind: MatchKind::Exact,
        });
        assert!(t.validate().is_err());
    }

    #[test]
    fn key_bits_resolution() {
        let t = acl();
        let bits = t
            .key_bits(&|fr| if fr.header == "ipv4" { Some(32) } else { None })
            .unwrap();
        assert_eq!(bits, 64);
        assert!(t.key_bits(&|_| None).is_err());
    }

    #[test]
    fn exact_match() {
        let m = KeyMatch::Exact(Value::new(7, 8));
        assert!(m.matches(Value::new(7, 8)));
        assert!(!m.matches(Value::new(8, 8)));
    }

    #[test]
    fn ternary_match() {
        let m = KeyMatch::Ternary(Value::new(0x0a00_0000, 32), Value::new(0xff00_0000, 32));
        assert!(m.matches(Value::new(0x0a01_0203, 32)));
        assert!(!m.matches(Value::new(0x0b01_0203, 32)));
    }

    #[test]
    fn lpm_match() {
        let m = KeyMatch::Lpm(Value::new(0x0a000000, 32), 8);
        assert!(m.matches(Value::new(0x0a123456, 32)));
        assert!(!m.matches(Value::new(0x0b123456, 32)));
        let default = KeyMatch::Lpm(Value::new(0, 32), 0);
        assert!(default.matches(Value::new(0xffff_ffff, 32)));
    }

    #[test]
    fn range_and_any() {
        let m = KeyMatch::Range(Value::new(1000, 16), Value::new(2000, 16));
        assert!(m.matches(Value::new(1000, 16)));
        assert!(m.matches(Value::new(2000, 16)));
        assert!(!m.matches(Value::new(999, 16)));
        assert!(KeyMatch::Any.matches(Value::new(0xdead, 16)));
    }
}
