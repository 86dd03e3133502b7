//! Packet representation: raw bytes ↔ parsed header view.
//!
//! A packet enters a pipelet as raw bytes, is parsed into a [`ParsedPacket`]
//! (ordered header instances with all field values extracted, plus the
//! unparsed payload), is manipulated by match-action processing, and is
//! *deparsed* back to bytes at the end of the pipelet — exactly the
//! parse/deparse cycle of the PSA architecture in the paper's Fig. 1.
//!
//! Crucially, **user metadata does not survive deparsing**: when a packet
//! crosses the traffic manager, is resubmitted, or is recirculated, only the
//! bytes (and a small set of platform-carried intrinsic fields) persist.
//! This is the hardware reality that motivates Dejavu's SFC header carrying
//! chain state in-band.

use dejavu_p4ir::{deposit_bits, extract_bits, FieldRef, HeaderType, ParserDag, Value};
use std::collections::{BTreeMap, HashMap};

/// One parsed header instance: a header type plus its extracted fields.
#[derive(Debug, Clone, PartialEq)]
pub struct HeaderInstance {
    /// Header type name.
    pub header_type: String,
    /// Field values keyed by field name.
    pub fields: BTreeMap<String, Value>,
}

impl HeaderInstance {
    /// A zero-initialized instance of the given type.
    pub fn zeroed(ht: &HeaderType) -> Self {
        HeaderInstance {
            header_type: ht.name.clone(),
            fields: ht
                .fields
                .iter()
                .map(|f| (f.name.clone(), Value::new(0, f.bits)))
                .collect(),
        }
    }

    /// Serializes this instance using its type definition.
    pub fn serialize(&self, ht: &HeaderType) -> Vec<u8> {
        let mut bytes = vec![0u8; ht.total_bytes() as usize];
        let mut bit_off = 0u64;
        for f in &ht.fields {
            let v = self
                .fields
                .get(&f.name)
                .copied()
                .unwrap_or(Value::new(0, f.bits));
            deposit_bits(&mut bytes, bit_off, v.resize(f.bits));
            bit_off += u64::from(f.bits);
        }
        bytes
    }
}

/// The parsed view of a packet inside a pipelet.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParsedPacket {
    /// Header instances in wire order.
    pub headers: Vec<HeaderInstance>,
    /// Bytes following the last parsed header.
    pub payload: Vec<u8>,
}

impl ParsedPacket {
    /// Parses `bytes` with the given parser DAG and header catalog.
    ///
    /// Extraction walks the DAG (validating select transitions against the
    /// actual bytes) and pulls every field of every accepted header out of
    /// the byte stream. Gaps between consecutive headers are disallowed by
    /// the DAG's offset discipline in practice; any bytes between the end of
    /// one header and the start of the next would indicate a skipping parser
    /// and are folded into the next header's position (we require contiguous
    /// layouts, which all programs in this workspace use).
    pub fn parse(
        bytes: &[u8],
        dag: &ParserDag,
        headers: &HashMap<String, HeaderType>,
    ) -> Result<Self, dejavu_p4ir::IrError> {
        let path = dag.parse(headers, bytes)?;
        let mut out = ParsedPacket::default();
        let mut consumed = 0usize;
        for (type_name, offset) in path {
            let ht = &headers[&type_name];
            let mut inst = HeaderInstance {
                header_type: type_name.clone(),
                fields: BTreeMap::new(),
            };
            let mut bit_off = u64::from(offset) * 8;
            for f in &ht.fields {
                inst.fields
                    .insert(f.name.clone(), extract_bits(bytes, bit_off, f.bits));
                bit_off += u64::from(f.bits);
            }
            consumed = offset as usize + ht.total_bytes() as usize;
            out.headers.push(inst);
        }
        out.payload = bytes[consumed..].to_vec();
        Ok(out)
    }

    /// Serializes headers in order followed by the payload. A header
    /// instance whose type is missing from the catalog (e.g. added by a
    /// buggy action) is an [`IrError::Undefined`](dejavu_p4ir::IrError),
    /// not a panic — the switch model surfaces it as a processing error.
    pub fn deparse(
        &self,
        headers: &HashMap<String, HeaderType>,
    ) -> Result<Vec<u8>, dejavu_p4ir::IrError> {
        let mut bytes = Vec::new();
        for inst in &self.headers {
            let ht =
                headers
                    .get(&inst.header_type)
                    .ok_or_else(|| dejavu_p4ir::IrError::Undefined {
                        kind: "header type",
                        name: inst.header_type.clone(),
                    })?;
            bytes.extend_from_slice(&inst.serialize(ht));
        }
        bytes.extend_from_slice(&self.payload);
        Ok(bytes)
    }

    /// Index of the first instance of `header_type`, if present.
    pub fn find(&self, header_type: &str) -> Option<usize> {
        self.headers
            .iter()
            .position(|h| h.header_type == header_type)
    }

    /// True if an instance of `header_type` is present (P4 `isValid()`).
    pub fn is_valid(&self, header_type: &str) -> bool {
        self.find(header_type).is_some()
    }

    /// Reads `header.field`, or `None` when the header is absent or the
    /// field unknown.
    pub fn get(&self, fr: &FieldRef) -> Option<Value> {
        let idx = self.find(&fr.header)?;
        self.headers[idx].fields.get(&fr.field).copied()
    }

    /// Writes `header.field`. Returns false when the header is absent (the
    /// write is dropped, matching hardware semantics of writing an invalid
    /// header).
    pub fn set(&mut self, fr: &FieldRef, value: Value) -> bool {
        let Some(idx) = self.find(&fr.header) else {
            return false;
        };
        match self.headers[idx].fields.get_mut(&fr.field) {
            Some(slot) => {
                *slot = value.resize(slot.bits());
                true
            }
            None => false,
        }
    }

    /// Inserts a zeroed instance of `ht` immediately before the first
    /// instance of `before` (or appends after all headers when `before` is
    /// `None` or absent).
    pub fn add_header(&mut self, ht: &HeaderType, before: Option<&str>) {
        let inst = HeaderInstance::zeroed(ht);
        let pos = before
            .and_then(|b| self.find(b))
            .unwrap_or(self.headers.len());
        self.headers.insert(pos, inst);
    }

    /// Removes the first instance of `header_type`; true if one was removed.
    pub fn remove_header(&mut self, header_type: &str) -> bool {
        self.remove_header_nth(header_type, 0)
    }

    /// Removes the `occurrence`-th instance (0-based, outermost first) of
    /// `header_type`; true if one was removed.
    pub fn remove_header_nth(&mut self, header_type: &str, occurrence: usize) -> bool {
        let idx = self
            .headers
            .iter()
            .enumerate()
            .filter(|(_, h)| h.header_type == header_type)
            .map(|(i, _)| i)
            .nth(occurrence);
        if let Some(idx) = idx {
            self.headers.remove(idx);
            true
        } else {
            false
        }
    }
}

/// FNV-1a hash over packet bytes — the flow-steering hash of the
/// run-to-completion executor. Deterministic across runs and platforms, so
/// packets of one flow (identical bytes ⊆ identical 5-tuple) always land on
/// the same worker core and per-flow ordering is preserved.
pub fn flow_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_p4ir::fref;
    use dejavu_p4ir::well_known;

    fn catalog() -> HashMap<String, HeaderType> {
        [
            well_known::ethernet(),
            well_known::ipv4(),
            well_known::tcp(),
            well_known::udp(),
        ]
        .into_iter()
        .map(|h| (h.name.clone(), h))
        .collect()
    }

    fn tcp_packet() -> Vec<u8> {
        let mut p = vec![0u8; 60];
        p[12] = 0x08; // IPv4
        p[14] = 0x45;
        p[22] = 64; // ttl
        p[23] = 6; // TCP
        p[26..30].copy_from_slice(&[10, 0, 0, 1]);
        p[30..34].copy_from_slice(&[192, 168, 0, 9]);
        p[34] = 0x30; // src port 12345 = 0x3039
        p[35] = 0x39;
        p[36] = 0x00; // dst port 80
        p[37] = 0x50;
        p[54..60].copy_from_slice(b"hello!");
        p
    }

    #[test]
    fn parse_extracts_fields_and_payload() {
        let pp = ParsedPacket::parse(&tcp_packet(), &well_known::eth_ip_l4_parser(), &catalog())
            .unwrap();
        assert_eq!(pp.headers.len(), 3);
        assert_eq!(pp.get(&fref("ipv4", "ttl")).unwrap().raw(), 64);
        assert_eq!(pp.get(&fref("ipv4", "src_addr")).unwrap().raw(), 0x0a000001);
        assert_eq!(pp.get(&fref("tcp", "dst_port")).unwrap().raw(), 80);
        assert_eq!(pp.payload, b"hello!");
    }

    #[test]
    fn deparse_is_inverse_of_parse() {
        let bytes = tcp_packet();
        let cat = catalog();
        let pp = ParsedPacket::parse(&bytes, &well_known::eth_ip_l4_parser(), &cat).unwrap();
        assert_eq!(pp.deparse(&cat).unwrap(), bytes);
    }

    #[test]
    fn set_then_deparse_changes_wire_bytes() {
        let cat = catalog();
        let mut pp =
            ParsedPacket::parse(&tcp_packet(), &well_known::eth_ip_l4_parser(), &cat).unwrap();
        assert!(pp.set(&fref("ipv4", "dst_addr"), Value::new(0x01020304, 32)));
        let bytes = pp.deparse(&cat).unwrap();
        assert_eq!(&bytes[30..34], &[1, 2, 3, 4]);
    }

    #[test]
    fn set_absent_header_is_noop() {
        let cat = catalog();
        let mut pp =
            ParsedPacket::parse(&tcp_packet(), &well_known::eth_ip_l4_parser(), &cat).unwrap();
        assert!(!pp.set(&fref("vxlan", "vni"), Value::new(7, 24)));
    }

    #[test]
    fn add_and_remove_header() {
        let mut cat = catalog();
        let sfc =
            HeaderType::new("sfc", vec![("path_id", 16u16), ("index", 8), ("pad", 8)]).unwrap();
        cat.insert("sfc".into(), sfc.clone());
        let mut pp =
            ParsedPacket::parse(&tcp_packet(), &well_known::eth_ip_l4_parser(), &cat).unwrap();
        let before_len = pp.deparse(&cat).unwrap().len();
        pp.add_header(&sfc, Some("ipv4"));
        assert!(pp.is_valid("sfc"));
        assert_eq!(pp.find("sfc"), Some(1)); // between ethernet and ipv4
        assert!(pp.set(&fref("sfc", "path_id"), Value::new(0xbeef, 16)));
        let bytes = pp.deparse(&cat).unwrap();
        assert_eq!(bytes.len(), before_len + 4);
        assert_eq!(&bytes[14..16], &[0xbe, 0xef]);
        assert!(pp.remove_header("sfc"));
        assert_eq!(pp.deparse(&cat).unwrap().len(), before_len);
        assert!(!pp.remove_header("sfc"));
    }

    #[test]
    fn deparse_unknown_header_type_is_an_error() {
        let cat = catalog();
        let mut pp =
            ParsedPacket::parse(&tcp_packet(), &well_known::eth_ip_l4_parser(), &cat).unwrap();
        pp.headers[0].header_type = "ghost".into();
        let err = pp.deparse(&cat).unwrap_err();
        assert_eq!(
            err,
            dejavu_p4ir::IrError::Undefined {
                kind: "header type",
                name: "ghost".into()
            }
        );
    }

    #[test]
    fn zeroed_instance_serializes_to_zeros() {
        let ht = well_known::udp();
        let inst = HeaderInstance::zeroed(&ht);
        assert_eq!(inst.serialize(&ht), vec![0u8; 8]);
    }

    #[test]
    fn flow_hash_is_deterministic_and_spreads() {
        // FNV-1a reference vector: the empty input hashes to the offset basis.
        assert_eq!(flow_hash(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(flow_hash(b"flow"), flow_hash(b"flow"));
        assert_ne!(flow_hash(b"flow-a"), flow_hash(b"flow-b"));
        // Distinct single-byte inputs spread over worker shards.
        let shards: std::collections::BTreeSet<u64> =
            (0u8..64).map(|b| flow_hash(&[b]) % 4).collect();
        assert_eq!(shards.len(), 4);
    }
}
