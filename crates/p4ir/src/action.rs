//! Actions: named sequences of primitive operations.
//!
//! Actions correspond to P4 `action` blocks. Each action has named runtime
//! parameters (bound per table entry, e.g. the server IP in the paper's
//! Fig. 4 `modify_dstIp(bit<32> dip)`) and a body of [`PrimitiveOp`]s over an
//! expression language [`Expr`].
//!
//! The operation set mirrors what a Tofino VLIW action unit plus the hash and
//! header add/remove externs can do — enough to express all five NFs in the
//! paper plus the Dejavu framework logic (SFC header insertion/removal, flag
//! checks, branching-table forwarding).

use crate::header::{FieldRef, FieldView};
use crate::value::Value;

/// Hash functions available to actions (P4 `Hash` extern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashAlgorithm {
    /// CRC-32 (the paper's Fig. 4 load balancer uses CRC32 over the 5-tuple).
    Crc32,
    /// CRC-16.
    Crc16,
    /// Fold all inputs together with XOR (cheap test hash).
    XorFold,
    /// Identity of the first input (useful in tests).
    Identity,
}

/// A pure expression evaluated against packet headers, metadata, and the
/// action's runtime parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Const(Value),
    /// The current value of a header or metadata field.
    Field(FieldRef),
    /// The action parameter with the given name.
    Param(String),
    /// Wrapping addition.
    Add(Box<Expr>, Box<Expr>),
    /// Wrapping subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Bitwise AND.
    And(Box<Expr>, Box<Expr>),
    /// Bitwise OR.
    Or(Box<Expr>, Box<Expr>),
    /// Bitwise XOR.
    Xor(Box<Expr>, Box<Expr>),
    /// Logical shift left by a constant.
    Shl(Box<Expr>, u32),
    /// Logical shift right by a constant.
    Shr(Box<Expr>, u32),
}

impl Expr {
    /// Literal helper.
    pub fn val(raw: u128, bits: u16) -> Expr {
        Expr::Const(Value::new(raw, bits))
    }

    /// Field read helper.
    pub fn field(header: &str, field: &str) -> Expr {
        Expr::Field(FieldRef::new(header, field))
    }

    /// Metadata read helper.
    pub fn meta(field: &str) -> Expr {
        Expr::Field(FieldRef::meta(field))
    }

    /// All field references read by this expression (for dependency
    /// analysis).
    pub fn reads(&self) -> Vec<FieldRef> {
        let mut out = Vec::new();
        self.for_each_read(&mut |fr| out.push(fr.clone()));
        out
    }

    /// Visits the field references [`Expr::reads`] lists, in its order.
    pub(crate) fn for_each_read<'a>(&'a self, f: &mut impl FnMut(&'a FieldRef)) {
        match self {
            Expr::Const(_) | Expr::Param(_) => {}
            Expr::Field(fr) => f(fr),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Xor(a, b) => {
                a.for_each_read(f);
                b.for_each_read(f);
            }
            Expr::Shl(a, _) | Expr::Shr(a, _) => a.for_each_read(f),
        }
    }
}

fn expr_views<'a>(e: &'a Expr, f: &mut impl FnMut(FieldView<'a>)) {
    e.for_each_read(&mut |fr| f(FieldView::of(fr)));
}

/// One primitive operation in an action body.
#[derive(Debug, Clone, PartialEq)]
pub enum PrimitiveOp {
    /// `dst = expr` — assign to a header or metadata field.
    Set {
        /// Destination field.
        dst: FieldRef,
        /// Value expression.
        value: Expr,
    },
    /// `dst = hash(algo, inputs) mod 2^width-of-dst`.
    Hash {
        /// Destination field receiving the hash.
        dst: FieldRef,
        /// Hash function.
        algo: HashAlgorithm,
        /// Input field expressions, hashed in order.
        inputs: Vec<Expr>,
    },
    /// Insert a header of the given type into the packet immediately before
    /// the named anchor header (Dejavu inserts the SFC header *"between
    /// Ethernet and IP"*: `AddHeader { header: "sfc", before: "ipv4" }` —
    /// i.e. after everything preceding `ipv4`). Field values must be `Set`
    /// afterwards; the header is zero-initialized.
    AddHeader {
        /// Header type to insert.
        header: String,
        /// Existing header before which the new header is placed; `None`
        /// appends after all currently parsed headers.
        before: Option<String>,
    },
    /// Remove a header of the given type from the packet (first instance).
    RemoveHeader {
        /// Header type to remove.
        header: String,
    },
    /// Remove the `occurrence`-th instance (0-based) of a header type —
    /// needed by tunnel gateways whose packets carry two instances of the
    /// same type (outer/inner).
    RemoveHeaderNth {
        /// Header type to remove.
        header: String,
        /// Which instance, counting from the outermost.
        occurrence: usize,
    },
    /// `dst = register[index]` — read a stateful register cell (P4
    /// `Register.read`). Registers persist across packets within a pipelet.
    RegisterRead {
        /// Destination field receiving the cell value.
        dst: FieldRef,
        /// Register array name.
        register: String,
        /// Cell index expression (wrapped modulo the array size).
        index: Expr,
    },
    /// `register[index] = value` (P4 `Register.write`).
    RegisterWrite {
        /// Register array name.
        register: String,
        /// Cell index expression.
        index: Expr,
        /// Value expression.
        value: Expr,
    },
    /// Recompute an IPv4-style ones-complement header checksum over the
    /// named header instance and store it in the header's `hdr_checksum`
    /// field (the checksum extern real routers invoke after rewriting TTL).
    Ipv4ChecksumUpdate {
        /// Header instance to checksum (must have a `hdr_checksum` field).
        header: String,
    },
    /// Emit a digest message to the control plane (Tofino `Digest` extern):
    /// the named stream receives the evaluated field values. Unlike a
    /// to-CPU punt the packet itself keeps flowing through the pipeline —
    /// only a compact record leaves for the CPU, which is what makes
    /// learn-on-first-packet NFs (dynamic NAT, conntrack) line-rate.
    Digest {
        /// Digest stream name (scoped like tables under merge).
        name: String,
        /// Value expressions carried by the digest, evaluated in order.
        fields: Vec<Expr>,
    },
    /// Mark the packet to be dropped at the end of the pipelet.
    Drop,
    /// No operation (P4 `NoAction`).
    NoOp,
}

/// Pseudo-header namespace used to express register access in the
/// dependency analysis: reading/writing register `r` reads/writes the
/// pseudo-field `reg::r.*`.
pub fn register_field(register: &str) -> FieldRef {
    FieldView::register(register).to_field_ref()
}

impl PrimitiveOp {
    /// Field references read by this op.
    pub fn reads(&self) -> Vec<FieldRef> {
        let mut out = Vec::new();
        self.for_each_read(|v| out.push(v.to_field_ref()));
        out
    }

    /// Field references written by this op (header add/remove is modelled as
    /// a write to every field of that header for dependency purposes).
    pub fn writes(&self) -> Vec<FieldRef> {
        let mut out = Vec::new();
        self.for_each_write(|v| out.push(v.to_field_ref()));
        out
    }

    /// Visits what [`PrimitiveOp::reads`] lists, in its order, borrowed.
    pub(crate) fn for_each_read<'a>(&'a self, mut f: impl FnMut(FieldView<'a>)) {
        match self {
            PrimitiveOp::Set { value, .. } => expr_views(value, &mut f),
            PrimitiveOp::Hash { inputs, .. } | PrimitiveOp::Digest { fields: inputs, .. } => {
                inputs.iter().for_each(|e| expr_views(e, &mut f));
            }
            PrimitiveOp::RegisterRead {
                register, index, ..
            } => {
                expr_views(index, &mut f);
                f(FieldView::register(register));
            }
            PrimitiveOp::RegisterWrite { index, value, .. } => {
                expr_views(index, &mut f);
                expr_views(value, &mut f);
            }
            PrimitiveOp::Ipv4ChecksumUpdate { header } => f(FieldView::new(header, "*")),
            _ => {}
        }
    }

    /// Visits what [`PrimitiveOp::writes`] lists, in its order, borrowed.
    pub(crate) fn for_each_write<'a>(&'a self, mut f: impl FnMut(FieldView<'a>)) {
        match self {
            PrimitiveOp::Set { dst, .. } | PrimitiveOp::Hash { dst, .. } => f(FieldView::of(dst)),
            PrimitiveOp::AddHeader { header, .. }
            | PrimitiveOp::RemoveHeader { header }
            | PrimitiveOp::RemoveHeaderNth { header, .. } => f(FieldView::new(header, "*")),
            PrimitiveOp::RegisterRead { dst, register, .. } => {
                // Reading a stateful register also serializes against other
                // accessors of the same array (read-modify-write atomicity
                // of the stateful ALU), so we model the read as a write to
                // the pseudo-field too.
                f(FieldView::of(dst));
                f(FieldView::register(register));
            }
            PrimitiveOp::RegisterWrite { register, .. } => f(FieldView::register(register)),
            PrimitiveOp::Ipv4ChecksumUpdate { header } => f(FieldView::new(header, "hdr_checksum")),
            PrimitiveOp::Drop => f(FieldView::new(FieldRef::META, "drop_flag")),
            // A digest only leaves the pipeline; it writes no packet state.
            PrimitiveOp::Digest { .. } | PrimitiveOp::NoOp => {}
        }
    }
}

/// A named action definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionDef {
    /// Action name, unique within its program.
    pub name: String,
    /// Runtime parameter names with widths, bound per table entry.
    pub params: Vec<(String, u16)>,
    /// Operation body, executed in order.
    pub ops: Vec<PrimitiveOp>,
}

impl ActionDef {
    /// Creates an action with no parameters.
    pub fn simple(name: impl Into<String>, ops: Vec<PrimitiveOp>) -> Self {
        ActionDef {
            name: name.into(),
            params: Vec::new(),
            ops,
        }
    }

    /// All field references read by the body.
    pub fn reads(&self) -> Vec<FieldRef> {
        self.ops.iter().flat_map(PrimitiveOp::reads).collect()
    }

    /// All field references written by the body.
    pub fn writes(&self) -> Vec<FieldRef> {
        self.ops.iter().flat_map(PrimitiveOp::writes).collect()
    }

    /// Number of VLIW slots this action consumes in the resource model: one
    /// per primitive operation (hash externs count double — they occupy the
    /// hash unit and the result mover; register accesses occupy the
    /// stateful ALU plus the mover; the checksum extern folds the whole
    /// header).
    pub fn vliw_slots(&self) -> u32 {
        self.ops
            .iter()
            .map(|op| match op {
                PrimitiveOp::Hash { .. }
                | PrimitiveOp::RegisterRead { .. }
                | PrimitiveOp::RegisterWrite { .. }
                | PrimitiveOp::Ipv4ChecksumUpdate { .. } => 2,
                PrimitiveOp::NoOp => 0,
                _ => 1,
            })
            .sum()
    }
}

/// Computes a hash over a sequence of values. Shared by the interpreter and
/// tests so both sides agree bit-for-bit.
///
/// The CRCs run over the concatenation of each input's big-endian bytes
/// ([`Value::to_be_bytes`]), fed value by value without building it.
pub fn run_hash(algo: HashAlgorithm, inputs: &[Value]) -> u128 {
    match algo {
        HashAlgorithm::Crc32 => {
            let crc = inputs.iter().fold(CRC32_INIT, |crc, v| {
                crc32_update(crc, &v.raw().to_be_bytes()[16 - v.byte_len()..])
            });
            u128::from(!crc)
        }
        HashAlgorithm::Crc16 => {
            let crc = inputs.iter().fold(CRC16_INIT, |crc, v| {
                crc16_update(crc, &v.raw().to_be_bytes()[16 - v.byte_len()..])
            });
            u128::from(crc)
        }
        HashAlgorithm::XorFold => inputs.iter().fold(0u128, |acc, v| acc ^ v.raw()),
        HashAlgorithm::Identity => inputs.first().map(|v| v.raw()).unwrap_or(0),
    }
}

const CRC32_INIT: u32 = 0xffff_ffff;
const CRC16_INIT: u16 = 0xffff;

/// Per-byte remainders of the reflected polynomial 0xEDB88320.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            k += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Per-byte remainders of the polynomial 0x1021 (MSB first).
const CRC16_TABLE: [u16; 256] = {
    let mut table = [0u16; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
            k += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Slicing-by-8: `CRC32_TABLES[k][b]` is the remainder of byte `b` followed
/// by `k` zero bytes, so eight bytes fold in one step of eight lookups.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [CRC32_TABLE; 8];
    let mut n = 256;
    while n < 8 * 256 {
        let prev = tables[n / 256 - 1][n % 256];
        tables[n / 256][n % 256] = (prev >> 8) ^ CRC32_TABLE[(prev & 0xff) as usize];
        n += 1;
    }
    tables
};

fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in chunks.by_ref() {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let b = |k: u32| (lo >> (8 * k)) as u8 as usize;
        crc = t[7][b(0)] ^ t[6][b(1)] ^ t[5][b(2)] ^ t[4][b(3)];
        crc ^= t[3][usize::from(c[4])] ^ t[2][usize::from(c[5])];
        crc ^= t[1][usize::from(c[6])] ^ t[0][usize::from(c[7])];
    }
    chunks.remainder().iter().fold(crc, |crc, &b| {
        CRC32_TABLE[usize::from(crc as u8 ^ b)] ^ (crc >> 8)
    })
}

fn crc16_update(crc: u16, data: &[u8]) -> u16 {
    data.iter().fold(crc, |crc, &b| {
        CRC16_TABLE[usize::from((crc >> 8) as u8 ^ b)] ^ (crc << 8)
    })
}

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320).
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(CRC32_INIT, data)
}

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF).
pub fn crc16(data: &[u8]) -> u16 {
    crc16_update(CRC16_INIT, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::fref;

    #[test]
    fn crc32_known_vector() {
        // CRC-32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_slices_agree_with_the_bytewise_table() {
        let data: Vec<u8> = (0..67u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for len in 0..=data.len() {
            let bytewise = data[..len].iter().fold(CRC32_INIT, |crc, &b| {
                CRC32_TABLE[usize::from(crc as u8 ^ b)] ^ (crc >> 8)
            });
            assert_eq!(crc32(&data[..len]), !bytewise, "length {len}");
        }
    }

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
        assert_eq!(crc16(b"123456789"), 0x29b1);
    }

    #[test]
    fn hash_is_deterministic_and_order_sensitive() {
        let a = Value::new(0x0a000001, 32);
        let b = Value::new(0x0a000002, 32);
        let h1 = run_hash(HashAlgorithm::Crc32, &[a, b]);
        let h2 = run_hash(HashAlgorithm::Crc32, &[a, b]);
        let h3 = run_hash(HashAlgorithm::Crc32, &[b, a]);
        assert_eq!(h1, h2);
        assert_ne!(h1, h3);
    }

    #[test]
    fn crc_hashes_run_over_concatenated_be_bytes() {
        // Odd widths included: a 9-bit value contributes two bytes, a
        // 128-bit one all sixteen.
        let vals = [
            Value::new(0x1ab, 9),
            Value::new(0x0a00_0001, 32),
            Value::new(6, 8),
            Value::new(u128::MAX - 5, 128),
        ];
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_be_bytes()).collect();
        assert_eq!(
            run_hash(HashAlgorithm::Crc32, &vals),
            u128::from(crc32(&bytes))
        );
        assert_eq!(
            run_hash(HashAlgorithm::Crc16, &vals),
            u128::from(crc16(&bytes))
        );
        assert_eq!(run_hash(HashAlgorithm::Crc32, &[]), 0);
        assert_eq!(run_hash(HashAlgorithm::Crc16, &[]), 0xffff);
    }

    #[test]
    fn xorfold_and_identity() {
        let a = Value::new(0xf0, 8);
        let b = Value::new(0x0f, 8);
        assert_eq!(run_hash(HashAlgorithm::XorFold, &[a, b]), 0xff);
        assert_eq!(run_hash(HashAlgorithm::Identity, &[a, b]), 0xf0);
        assert_eq!(run_hash(HashAlgorithm::Identity, &[]), 0);
    }

    #[test]
    fn reads_and_writes() {
        let act = ActionDef {
            name: "rewrite".into(),
            params: vec![("dip".into(), 32)],
            ops: vec![
                PrimitiveOp::Set {
                    dst: fref("ipv4", "dst_addr"),
                    value: Expr::Param("dip".into()),
                },
                PrimitiveOp::Set {
                    dst: fref("ipv4", "ttl"),
                    value: Expr::Sub(
                        Box::new(Expr::field("ipv4", "ttl")),
                        Box::new(Expr::val(1, 8)),
                    ),
                },
            ],
        };
        assert_eq!(act.reads(), vec![fref("ipv4", "ttl")]);
        assert_eq!(
            act.writes(),
            vec![fref("ipv4", "dst_addr"), fref("ipv4", "ttl")]
        );
        assert_eq!(act.vliw_slots(), 2);
    }

    #[test]
    fn hash_op_counts_two_slots() {
        let act = ActionDef::simple(
            "h",
            vec![PrimitiveOp::Hash {
                dst: FieldRef::meta("session_hash"),
                algo: HashAlgorithm::Crc32,
                inputs: vec![Expr::field("ipv4", "src_addr")],
            }],
        );
        assert_eq!(act.vliw_slots(), 2);
        assert_eq!(act.reads(), vec![fref("ipv4", "src_addr")]);
    }

    #[test]
    fn expr_reads_nested() {
        let e = Expr::Add(
            Box::new(Expr::Xor(
                Box::new(Expr::field("a", "x")),
                Box::new(Expr::field("b", "y")),
            )),
            Box::new(Expr::Shl(Box::new(Expr::meta("m")), 3)),
        );
        let reads = e.reads();
        assert_eq!(reads.len(), 3);
        assert!(reads.contains(&fref("a", "x")));
        assert!(reads.contains(&FieldRef::meta("m")));
    }
}
