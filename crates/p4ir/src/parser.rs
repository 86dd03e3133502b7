//! Parser DAGs.
//!
//! A P4 parser is a directed acyclic graph in which *"each vertex represents
//! a header type at a particular location offset, and each edge represents a
//! transition from one header to another"* (Dejavu §3). Vertex identity is
//! the `(header_type, offset)` tuple — the representation that makes Dejavu's
//! parser merging well-defined even when two NFs name the same header
//! differently or parse it at different offsets.
//!
//! Transitions are either unconditional or select on one field of the node's
//! header (e.g. `ethernet.ether_type == 0x0800 → ipv4`). Because every header
//! occupies at least one byte and a child's offset must lie at or beyond the
//! end of its parent, offsets strictly increase along every edge, so the
//! graph is acyclic by construction.

use crate::error::{IrError, Result};
use crate::header::HeaderType;
use crate::value::{mask_for, Value};
use std::collections::HashMap;

/// Where a transition leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// Continue parsing at the given node.
    Node(usize),
    /// Stop parsing and accept the packet.
    Accept,
    /// Stop parsing and reject the packet (parser error → drop).
    Reject,
}

/// Outgoing transition specification of a parse node.
#[derive(Debug, Clone, PartialEq)]
pub enum Transition {
    /// Always proceed to the target.
    Unconditional(Target),
    /// Branch on the value of one field of this node's header.
    Select {
        /// Field of this node's header type to match on.
        field: String,
        /// `(value, target)` cases, checked in order.
        cases: Vec<(Value, Target)>,
        /// Target when no case matches.
        default: Target,
    },
}

impl Transition {
    /// All targets this transition can reach.
    pub fn targets(&self) -> Vec<Target> {
        match self {
            Transition::Unconditional(t) => vec![*t],
            Transition::Select { cases, default, .. } => {
                let mut v: Vec<Target> = cases.iter().map(|(_, t)| *t).collect();
                v.push(*default);
                v
            }
        }
    }
}

/// One vertex of the parser DAG: a header type at a byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseNode {
    /// Header type parsed at this vertex.
    pub header_type: String,
    /// Byte offset from the start of the packet where this header begins.
    pub offset: u32,
    /// Outgoing transition taken after extracting this header.
    pub transition: Transition,
}

impl ParseNode {
    /// The `(header_type, offset)` identity tuple of this vertex.
    pub fn key(&self) -> (&str, u32) {
        (self.header_type.as_str(), self.offset)
    }
}

/// A complete parser DAG.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParserDag {
    /// Vertices, indexed by position.
    pub nodes: Vec<ParseNode>,
    /// Entry transition (normally unconditional to the node at offset 0).
    pub start: Option<Target>,
}

/// The result of walking a parser over packet bytes: the accepted headers in
/// parse order, as `(header_type, byte_offset)` pairs.
pub type ParsePath = Vec<(String, u32)>;

impl ParserDag {
    /// Creates an empty DAG.
    pub fn new() -> Self {
        ParserDag::default()
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, node: ParseNode) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Looks up a node by its `(header_type, offset)` identity.
    pub fn find(&self, header_type: &str, offset: u32) -> Option<usize> {
        self.nodes
            .iter()
            .position(|n| n.header_type == header_type && n.offset == offset)
    }

    /// Validates the DAG against a header catalog:
    /// * the start transition and every edge target exist,
    /// * select fields exist in the node's header type,
    /// * child offsets lie at or beyond the end of the parent header
    ///   (guaranteeing acyclicity),
    /// * vertex identities `(header_type, offset)` are unique.
    pub fn validate(&self, headers: &HashMap<String, HeaderType>) -> Result<()> {
        let start = self
            .start
            .ok_or_else(|| IrError::Invalid("parser has no start transition".into()))?;
        self.check_target(start)?;
        let mut keys = std::collections::HashSet::new();
        for (id, node) in self.nodes.iter().enumerate() {
            let ht = headers
                .get(&node.header_type)
                .ok_or_else(|| IrError::Undefined {
                    kind: "header type",
                    name: node.header_type.clone(),
                })?;
            if !keys.insert((node.header_type.clone(), node.offset)) {
                return Err(IrError::Duplicate {
                    kind: "parser vertex",
                    name: format!("({}, {})", node.header_type, node.offset),
                });
            }
            if let Transition::Select { field, .. } = &node.transition {
                let fd = ht.field(field).ok_or_else(|| IrError::Undefined {
                    kind: "select field",
                    name: format!("{}.{}", node.header_type, field),
                })?;
                if fd.bits > 128 {
                    return Err(IrError::Invalid(format!(
                        "select field {}.{} too wide",
                        node.header_type, field
                    )));
                }
            }
            let end = node.offset + ht.total_bytes();
            for t in node.transition.targets() {
                self.check_target(t)?;
                if let Target::Node(child) = t {
                    let c = &self.nodes[child];
                    if c.offset < end {
                        return Err(IrError::Invalid(format!(
                            "edge from node {id} ({}@{}) to ({}@{}) goes backwards \
                             (parent ends at byte {end})",
                            node.header_type, node.offset, c.header_type, c.offset
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    fn check_target(&self, t: Target) -> Result<()> {
        if let Target::Node(i) = t {
            if i >= self.nodes.len() {
                return Err(IrError::Invalid(format!(
                    "dangling parser edge to node {i}"
                )));
            }
        }
        Ok(())
    }

    /// Walks the DAG over packet bytes, returning the accept path, or an
    /// error if the packet is rejected / truncated.
    ///
    /// This is the reference parser used by tests, the merge validator, and
    /// the `dejavu-asic` interpreter.
    pub fn parse(&self, headers: &HashMap<String, HeaderType>, bytes: &[u8]) -> Result<ParsePath> {
        let mut path = Vec::new();
        let mut cur = self
            .start
            .ok_or_else(|| IrError::Invalid("parser has no start transition".into()))?;
        loop {
            match cur {
                Target::Accept => return Ok(path),
                Target::Reject => {
                    return Err(IrError::Invalid(format!(
                        "packet rejected by parser after {:?}",
                        path
                    )))
                }
                Target::Node(id) => {
                    let node = &self.nodes[id];
                    let ht = headers
                        .get(&node.header_type)
                        .ok_or_else(|| IrError::Undefined {
                            kind: "header type",
                            name: node.header_type.clone(),
                        })?;
                    let end = node.offset as usize + ht.total_bytes() as usize;
                    if bytes.len() < end {
                        return Err(IrError::Invalid(format!(
                            "packet too short: {} bytes, need {} for {}@{}",
                            bytes.len(),
                            end,
                            node.header_type,
                            node.offset
                        )));
                    }
                    path.push((node.header_type.clone(), node.offset));
                    cur = match &node.transition {
                        Transition::Unconditional(t) => *t,
                        Transition::Select {
                            field,
                            cases,
                            default,
                        } => {
                            let v =
                                extract_field(ht, field, bytes, node.offset).ok_or_else(|| {
                                    IrError::Undefined {
                                        kind: "select field",
                                        name: format!("{}.{}", node.header_type, field),
                                    }
                                })?;
                            cases
                                .iter()
                                .find(|(case, _)| *case == v)
                                .map(|(_, t)| *t)
                                .unwrap_or(*default)
                        }
                    };
                }
            }
        }
    }

    /// All distinct `(header_type, offset)` vertex identities in the DAG.
    pub fn vertex_keys(&self) -> Vec<(String, u32)> {
        self.nodes
            .iter()
            .map(|n| (n.header_type.clone(), n.offset))
            .collect()
    }

    /// Maximum byte consumed by any vertex (parser window requirement).
    pub fn max_depth_bytes(&self, headers: &HashMap<String, HeaderType>) -> u32 {
        self.nodes
            .iter()
            .filter_map(|n| {
                headers
                    .get(&n.header_type)
                    .map(|h| n.offset + h.total_bytes())
            })
            .max()
            .unwrap_or(0)
    }
}

/// Extracts the value of `field` from a header of type `ht` starting at byte
/// `offset` in `bytes`. Returns `None` if the field does not exist; panics
/// are avoided by the caller having validated lengths.
pub fn extract_field(ht: &HeaderType, field: &str, bytes: &[u8], offset: u32) -> Option<Value> {
    let bit_off = ht.field_bit_offset(field)?;
    let fd = ht.field(field)?;
    Some(extract_bits(
        bytes,
        u64::from(offset) * 8 + u64::from(bit_off),
        fd.bits,
    ))
}

/// Splits a bit range into `(first byte, bit offset within it, bytes
/// touched)`. A field is at most 128 bits, so it touches at most 17 bytes.
fn byte_span(bit_off: u64, bits: u16) -> (usize, u32, usize) {
    assert!(
        (1..=128).contains(&bits),
        "value width out of range: {bits}"
    );
    let shift = (bit_off % 8) as u32;
    let span = (shift + u32::from(bits)).div_ceil(8) as usize;
    ((bit_off / 8) as usize, shift, span)
}

/// Extracts `bits` bits starting at absolute bit offset `bit_off`.
///
/// Bit order is big-endian throughout: bit 0 of the stream is the MSB of
/// `bytes[0]`, and the first bit extracted becomes the MSB of the value.
/// Panics when the range runs past the end of `bytes`.
pub fn extract_bits(bytes: &[u8], bit_off: u64, bits: u16) -> Value {
    let (first, shift, span) = byte_span(bit_off, bits);
    let src = &bytes[first..first + span];
    // One big-endian word load; `<< shift` left-aligns the field in it.
    let n = span.min(16);
    let mut word = [0u8; 16];
    word[..n].copy_from_slice(&src[..n]);
    let mut hi = u128::from_be_bytes(word) << shift;
    if span > 16 {
        // An unaligned field wider than 120 bits ends in a 17th byte.
        hi |= u128::from(src[16] >> (8 - shift));
    }
    Value::new(hi >> (128 - u32::from(bits)), bits)
}

/// Writes `value` into `bytes` at absolute bit offset `bit_off`, leaving
/// every other bit untouched. The inverse of [`extract_bits`] (same bit
/// order, same panic on a range past the end of `bytes`).
pub fn deposit_bits(bytes: &mut [u8], bit_off: u64, value: Value) {
    let bits = u32::from(value.bits());
    let (first, shift, span) = byte_span(bit_off, value.bits());
    let dst = &mut bytes[first..first + span];
    let n = span.min(16);
    let mut word = [0u8; 16];
    word[..n].copy_from_slice(&dst[..n]);
    let field = value.raw() << (128 - bits);
    let mask = mask_for(value.bits()) << (128 - bits);
    let merged = (u128::from_be_bytes(word) & !(mask >> shift)) | (field >> shift);
    dst[..n].copy_from_slice(&merged.to_be_bytes()[..n]);
    if span > 16 {
        // The field's low `spill` bits land in the top of the 17th byte.
        let spill = shift + bits - 128;
        dst[16] = (dst[16] & (0xff >> spill)) | ((value.raw() as u8) << (8 - spill));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::HeaderType;
    use proptest::prelude::*;

    fn catalog() -> HashMap<String, HeaderType> {
        let mut m = HashMap::new();
        m.insert(
            "ethernet".into(),
            HeaderType::new(
                "ethernet",
                vec![("dst", 48u16), ("src", 48), ("ether_type", 16)],
            )
            .unwrap(),
        );
        m.insert(
            "ipv4".into(),
            HeaderType::new(
                "ipv4",
                vec![
                    ("version", 4u16),
                    ("ihl", 4),
                    ("dscp", 8),
                    ("total_len", 16),
                    ("id", 16),
                    ("flags_frag", 16),
                    ("ttl", 8),
                    ("protocol", 8),
                    ("checksum", 16),
                    ("src_addr", 32),
                    ("dst_addr", 32),
                ],
            )
            .unwrap(),
        );
        m
    }

    fn eth_ipv4_dag() -> ParserDag {
        let mut dag = ParserDag::new();
        let ip = dag.add_node(ParseNode {
            header_type: "ipv4".into(),
            offset: 14,
            transition: Transition::Unconditional(Target::Accept),
        });
        let eth = dag.add_node(ParseNode {
            header_type: "ethernet".into(),
            offset: 0,
            transition: Transition::Select {
                field: "ether_type".into(),
                cases: vec![(Value::new(0x0800, 16), Target::Node(ip))],
                default: Target::Accept,
            },
        });
        dag.start = Some(Target::Node(eth));
        dag
    }

    fn eth_ipv4_packet() -> Vec<u8> {
        let mut p = vec![0u8; 34];
        p[12] = 0x08; // ether_type = 0x0800
        p[13] = 0x00;
        p[14] = 0x45; // version/ihl
        p[22] = 64; // ttl
        p[23] = 6; // protocol = TCP
        p[26..30].copy_from_slice(&[10, 0, 0, 1]);
        p[30..34].copy_from_slice(&[10, 0, 0, 2]);
        p
    }

    #[test]
    fn validate_ok() {
        eth_ipv4_dag().validate(&catalog()).unwrap();
    }

    #[test]
    fn parse_follows_select() {
        let path = eth_ipv4_dag()
            .parse(&catalog(), &eth_ipv4_packet())
            .unwrap();
        assert_eq!(
            path,
            vec![("ethernet".to_string(), 0), ("ipv4".to_string(), 14)]
        );
    }

    #[test]
    fn parse_default_branch() {
        let mut pkt = eth_ipv4_packet();
        pkt[12] = 0x86; // not IPv4
        let path = eth_ipv4_dag().parse(&catalog(), &pkt).unwrap();
        assert_eq!(path, vec![("ethernet".to_string(), 0)]);
    }

    #[test]
    fn truncated_packet_errors() {
        let pkt = &eth_ipv4_packet()[..20];
        assert!(eth_ipv4_dag().parse(&catalog(), pkt).is_err());
    }

    #[test]
    fn reject_target_errors() {
        let mut dag = eth_ipv4_dag();
        // Make non-IPv4 packets rejected instead of accepted.
        if let Transition::Select { default, .. } = &mut dag.nodes[1].transition {
            *default = Target::Reject;
        }
        let mut pkt = eth_ipv4_packet();
        pkt[12] = 0x12;
        assert!(dag.parse(&catalog(), &pkt).is_err());
    }

    #[test]
    fn backwards_edge_rejected() {
        let mut dag = ParserDag::new();
        let a = dag.add_node(ParseNode {
            header_type: "ethernet".into(),
            offset: 0,
            transition: Transition::Unconditional(Target::Accept),
        });
        dag.add_node(ParseNode {
            header_type: "ipv4".into(),
            offset: 0, // overlaps ethernet — invalid
            transition: Transition::Unconditional(Target::Node(a)),
        });
        dag.start = Some(Target::Node(a));
        // node 1 is unreachable from start but still validated structurally
        assert!(dag.validate(&catalog()).is_err());
    }

    #[test]
    fn duplicate_vertex_identity_rejected() {
        let mut dag = eth_ipv4_dag();
        dag.add_node(ParseNode {
            header_type: "ipv4".into(),
            offset: 14,
            transition: Transition::Unconditional(Target::Accept),
        });
        assert!(dag.validate(&catalog()).is_err());
    }

    #[test]
    fn extract_and_deposit_roundtrip() {
        let cat = catalog();
        let ip = &cat["ipv4"];
        let mut pkt = eth_ipv4_packet();
        let ttl = extract_field(ip, "ttl", &pkt, 14).unwrap();
        assert_eq!(ttl.raw(), 64);
        deposit_bits(
            &mut pkt,
            14 * 8 + u64::from(ip.field_bit_offset("ttl").unwrap()),
            Value::new(63, 8),
        );
        assert_eq!(extract_field(ip, "ttl", &pkt, 14).unwrap().raw(), 63);
        // sub-byte field
        let version = extract_field(ip, "version", &pkt, 14).unwrap();
        assert_eq!(version.raw(), 4);
        let ihl = extract_field(ip, "ihl", &pkt, 14).unwrap();
        assert_eq!(ihl.raw(), 5);
    }

    #[test]
    fn max_depth() {
        assert_eq!(eth_ipv4_dag().max_depth_bytes(&catalog()), 34);
    }

    /// The bit-serial codec the word-granular one replaced, kept as its
    /// oracle: one stream bit per iteration, MSB first.
    fn extract_bits_serial(bytes: &[u8], bit_off: u64, bits: u16) -> Value {
        let mut raw: u128 = 0;
        for i in 0..u64::from(bits) {
            let b = bit_off + i;
            let byte = bytes[(b / 8) as usize];
            let bit = (byte >> (7 - (b % 8))) & 1;
            raw = (raw << 1) | u128::from(bit);
        }
        Value::new(raw, bits)
    }

    fn deposit_bits_serial(bytes: &mut [u8], bit_off: u64, value: Value) {
        let bits = u64::from(value.bits());
        for i in 0..bits {
            let b = bit_off + i;
            let byte = &mut bytes[(b / 8) as usize];
            let mask = 1u8 << (7 - (b % 8));
            let bit = ((value.raw() >> (bits - 1 - i)) & 1) as u8;
            if bit == 1 {
                *byte |= mask;
            } else {
                *byte &= !mask;
            }
        }
    }

    const CODEC_BUF: usize = 40;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every `bit_off % 8` × every width, on a random buffer at a
        /// random byte offset: the word-granular codec reads the same
        /// value, writes the same bytes, touches no neighbouring bit, and
        /// `deposit ∘ extract` is the identity.
        #[test]
        fn codec_matches_bit_serial_oracle(
            buf in proptest::collection::vec(any::<u8>(), CODEC_BUF),
            raw in any::<u128>(),
            byte_off in 0u64..(CODEC_BUF as u64 - 17),
        ) {
            for shift in 0..8u64 {
                for bits in 1..=128u16 {
                    let off = byte_off * 8 + shift;
                    let got = extract_bits(&buf, off, bits);
                    prop_assert_eq!(got, extract_bits_serial(&buf, off, bits));

                    let mut same = buf.clone();
                    deposit_bits(&mut same, off, got);
                    prop_assert_eq!(&same, &buf, "deposit(extract) changed bytes");

                    let v = Value::new(raw, bits);
                    let (mut fast, mut slow) = (buf.clone(), buf.clone());
                    deposit_bits(&mut fast, off, v);
                    deposit_bits_serial(&mut slow, off, v);
                    prop_assert_eq!(&fast, &slow, "off {} bits {}", off, bits);
                    prop_assert_eq!(extract_bits(&fast, off, bits), v);
                    // Neighbours: everything outside [off, off + bits).
                    let end = off + u64::from(bits);
                    let total = CODEC_BUF as u64 * 8;
                    if off > 0 {
                        let w = off.min(128) as u16;
                        prop_assert_eq!(
                            extract_bits_serial(&fast, off - u64::from(w), w),
                            extract_bits_serial(&buf, off - u64::from(w), w)
                        );
                    }
                    let w = (total - end).min(128) as u16;
                    prop_assert_eq!(
                        extract_bits_serial(&fast, end, w),
                        extract_bits_serial(&buf, end, w)
                    );
                }
            }
        }

        /// A range that runs past the end panics in both codecs; the same
        /// range pulled back inside the buffer panics in neither.
        #[test]
        fn codec_panics_past_the_end_like_the_oracle(
            len in 1usize..24,
            over in 1u64..=16,
            bits in 1u16..=128,
        ) {
            use std::panic::catch_unwind;
            let buf = vec![0xa5u8; len];
            let total = len as u64 * 8;
            let v = Value::new(u128::MAX, bits);
            for bit_off in [
                (total + over).saturating_sub(u64::from(bits)),
                total.saturating_sub(u64::from(bits)),
            ] {
                let past = bit_off + u64::from(bits) > total;
                prop_assert_eq!(catch_unwind(|| extract_bits(&buf, bit_off, bits)).is_err(), past);
                prop_assert_eq!(
                    catch_unwind(|| extract_bits_serial(&buf, bit_off, bits)).is_err(),
                    past
                );
                prop_assert_eq!(
                    catch_unwind(|| deposit_bits(&mut buf.clone(), bit_off, v)).is_err(),
                    past
                );
                prop_assert_eq!(
                    catch_unwind(|| deposit_bits_serial(&mut buf.clone(), bit_off, v)).is_err(),
                    past
                );
            }
        }
    }
}
