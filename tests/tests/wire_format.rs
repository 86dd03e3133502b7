//! Property tests for the cluster wire format: every generated message
//! survives an encode → decode round trip bit-exactly, and every corrupted
//! frame — truncated at any byte, over-length, wrong magic/version/class/tag
//! — decodes to a typed [`WireError`], never a panic. Every single-bit flip
//! is caught by the frame's CRC trailer; a test that stomps a field to reach
//! one decoder stage re-seals the trailer first ([`reseal`]). State and
//! metrics snapshots ride the same properties, and a differential property
//! pins the frame encoding and the JSON export encoding of a
//! [`StateSnapshot`] against each other. A packet's frame grows by one
//! fixed-size hop per switch visited, and the frames of a fixed corpus are
//! pinned byte for byte by one hash (`frames_are_pinned`).

use dejavu_asic::state::{RegisterSnapshot, TableSnapshot, SNAPSHOT_FORMAT_VERSION};
use dejavu_asic::switch::Disposition;
use dejavu_asic::tables::Eviction;
use dejavu_asic::telemetry::{HistogramSnapshot, MetricValue, HISTOGRAM_BUCKETS};
use dejavu_asic::{Gress, MetricsSnapshot, PipeletId, StateSnapshot};
use dejavu_core::control_plane::LearnPolicy;
use dejavu_core::transport::wire::{
    decode, encode, payload_len, ControlMsg, DataMsg, HopSummary, Message, SealedSlice,
    TelemetryMsg, WireError, HEADER_LEN, MAX_PAYLOAD, TRAILER_LEN, WIRE_MAGIC, WIRE_VERSION,
};
use dejavu_p4ir::action::crc32;
use dejavu_p4ir::table::{KeyMatch, TableEntry};
use dejavu_p4ir::Value;
use proptest::collection::vec;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

fn value_strat() -> BoxedStrategy<Value> {
    (any::<u128>(), 1u16..=128)
        .prop_map(|(raw, bits)| Value::new(raw, bits))
        .boxed()
}

/// Short identifier-ish strings; occasionally empty or multi-byte UTF-8 to
/// exercise the length-prefixed string codec beyond plain ASCII.
fn string_strat() -> BoxedStrategy<String> {
    vec(any::<u8>(), 0..12)
        .prop_map(|bytes| {
            bytes
                .into_iter()
                .map(|b| match b % 30 {
                    0..=25 => (b'a' + b % 26) as char,
                    26 => '_',
                    27 => 'λ',
                    28 => '→',
                    _ => '0',
                })
                .collect()
        })
        .boxed()
}

fn key_match_strat() -> BoxedStrategy<KeyMatch> {
    prop_oneof![
        value_strat().prop_map(KeyMatch::Exact),
        (value_strat(), value_strat()).prop_map(|(v, m)| KeyMatch::Ternary(v, m)),
        (value_strat(), any::<u16>()).prop_map(|(v, l)| KeyMatch::Lpm(v, l)),
        (value_strat(), value_strat()).prop_map(|(lo, hi)| KeyMatch::Range(lo, hi)),
        Just(KeyMatch::Any),
    ]
    .boxed()
}

fn entry_strat() -> BoxedStrategy<TableEntry> {
    (
        vec(key_match_strat(), 0..4),
        string_strat(),
        vec(value_strat(), 0..4),
        any::<i32>(),
    )
        .prop_map(|(matches, action, action_args, priority)| TableEntry {
            matches,
            action,
            action_args,
            priority,
        })
        .boxed()
}

/// 0–3 tables of 0–8 entries (aging on or off), 0–2 registers whose cells
/// include the full `u128` range.
fn snapshot_strat() -> BoxedStrategy<StateSnapshot> {
    let table = (
        string_strat(),
        prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        vec(entry_strat(), 0..=8),
    )
        .prop_map(|(name, idle_timeout, entries)| TableSnapshot {
            name,
            idle_timeout,
            entries,
        });
    let cell = prop_oneof![Just(u128::MAX), Just(0u128), any::<u128>()];
    let register = (string_strat(), vec(cell, 0..6))
        .prop_map(|(name, cells)| RegisterSnapshot { name, cells });
    (
        string_strat(),
        any::<u64>(),
        vec(table, 0..=3),
        vec(register, 0..=2),
    )
        .prop_map(|(program, clock, tables, registers)| StateSnapshot {
            version: SNAPSHOT_FORMAT_VERSION,
            program,
            clock,
            tables,
            registers,
        })
        .boxed()
}

/// A generated snapshot, sealed.
fn sealed_strat() -> BoxedStrategy<SealedSlice> {
    snapshot_strat()
        .prop_map(|slice| SealedSlice::seal(&slice))
        .boxed()
}

fn pipelet_strat() -> BoxedStrategy<PipeletId> {
    (any::<bool>(), 0u32..8)
        .prop_map(|(egress, pipeline)| PipeletId {
            pipeline: pipeline as usize,
            gress: if egress {
                Gress::Egress
            } else {
                Gress::Ingress
            },
        })
        .boxed()
}

fn disposition_strat() -> BoxedStrategy<Disposition> {
    prop_oneof![
        any::<u16>().prop_map(|port| Disposition::Emitted { port }),
        Just(Disposition::Dropped),
        Just(Disposition::ToCpu),
    ]
    .boxed()
}

/// Finite latencies only: the wire format round-trips any f64 bit pattern,
/// but `Message: PartialEq` can't witness a NaN round trip.
fn latency_strat() -> BoxedStrategy<f64> {
    (any::<u32>(), 1u32..1000)
        .prop_map(|(n, d)| f64::from(n) / f64::from(d))
        .boxed()
}

fn hop_strat() -> BoxedStrategy<HopSummary> {
    (0u32..16, latency_strat(), any::<u32>(), any::<u32>())
        .prop_map(
            |(switch, latency_ns, recirculations, resubmissions)| HopSummary {
                switch,
                latency_ns,
                recirculations,
                resubmissions,
            },
        )
        .boxed()
}

fn data_strat() -> BoxedStrategy<DataMsg> {
    (
        any::<u64>(),
        any::<u16>(),
        latency_strat(),
        any::<u32>(),
        vec(hop_strat(), 0..4),
        vec(any::<u8>(), 0..128),
    )
        .prop_map(
            |(trace, port, latency_ns, inter_switch_hops, hops, bytes)| DataMsg {
                trace,
                port,
                latency_ns,
                inter_switch_hops,
                hops,
                bytes,
            },
        )
        .boxed()
}

fn control_strat() -> BoxedStrategy<ControlMsg> {
    prop_oneof![
        (any::<u64>(), string_strat(), string_strat(), entry_strat()).prop_map(
            |(seq, nf, table, entry)| ControlMsg::Install {
                seq,
                nf,
                table,
                entry,
            }
        ),
        (any::<u64>(), string_strat(), string_strat(), entry_strat()).prop_map(
            |(seq, nf, table, entry)| ControlMsg::Remove {
                seq,
                nf,
                table,
                entry,
            }
        ),
        (
            any::<u64>(),
            string_strat(),
            string_strat(),
            prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        )
            .prop_map(|(seq, nf, table, ticks)| ControlMsg::SetIdleTimeout {
                seq,
                nf,
                table,
                ticks,
            }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(seq, ticks)| ControlMsg::AdvanceTime { seq, ticks }),
        any::<u64>().prop_map(|seq| ControlMsg::DrainDigests { seq }),
        any::<u64>().prop_map(|seq| ControlMsg::ScrapeMetrics { seq }),
        any::<u64>().prop_map(|seq| ControlMsg::SnapshotState { seq }),
        (any::<u64>(), pipelet_strat(), snapshot_strat()).prop_map(|(seq, pipelet, snapshot)| {
            ControlMsg::RestoreState {
                seq,
                pipelet,
                snapshot,
            }
        }),
        (
            any::<u64>(),
            any::<u64>(),
            vec((pipelet_strat(), sealed_strat()), 0..3)
        )
            .prop_map(|(seq, staged, state)| ControlMsg::Flip { seq, staged, state }),
        (any::<u64>(), vec((string_strat(), pipelet_strat()), 0..4))
            .prop_map(|(seq, slices)| ControlMsg::SnapshotSlices { seq, slices }),
        any::<u64>().prop_map(|seq| ControlMsg::Retire { seq }),
        any::<u64>().prop_map(|seq| ControlMsg::Shutdown { seq }),
        (any::<u64>(), string_strat(), string_strat(), policy_strat()).prop_map(
            |(seq, nf, stream, policy)| ControlMsg::RegisterLearnPolicy {
                seq,
                nf,
                stream,
                policy,
            }
        ),
    ]
    .boxed()
}

fn policy_strat() -> BoxedStrategy<LearnPolicy> {
    let fields = || vec(0usize..u32::MAX as usize, 0..4);
    (string_strat(), string_strat(), fields(), fields())
        .prop_map(|(table, action, key_map, arg_map)| LearnPolicy {
            table,
            action,
            key_map,
            arg_map,
        })
        .boxed()
}

/// Counters, gauges of either sign, and histograms of up to the full
/// [`HISTOGRAM_BUCKETS`].
fn metrics_strat() -> BoxedStrategy<MetricsSnapshot> {
    let histogram = (
        vec(any::<u64>(), 0..=HISTOGRAM_BUCKETS),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(buckets, count, sum)| {
            MetricValue::Histogram(HistogramSnapshot {
                buckets,
                count,
                sum,
            })
        });
    let value = prop_oneof![
        any::<u64>().prop_map(MetricValue::Counter),
        any::<i64>().prop_map(MetricValue::Gauge),
        histogram,
    ];
    vec((string_strat(), value), 0..6)
        .prop_map(|series| MetricsSnapshot {
            metrics: series.into_iter().collect(),
        })
        .boxed()
}

fn telemetry_strat() -> BoxedStrategy<TelemetryMsg> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(seq, info)| TelemetryMsg::Ack { seq, info }),
        (any::<u64>(), string_strat()).prop_map(|(seq, error)| TelemetryMsg::Nack { seq, error }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(seq, digests, installed)| {
            TelemetryMsg::DrainDone {
                seq,
                digests,
                installed,
            }
        }),
        (any::<u64>(), metrics_strat(), any::<u64>()).prop_map(
            |(seq, snapshot, rejected_frames)| TelemetryMsg::Metrics {
                seq,
                snapshot,
                rejected_frames,
            }
        ),
        (any::<u64>(), vec((pipelet_strat(), snapshot_strat()), 0..3))
            .prop_map(|(seq, items)| TelemetryMsg::Snapshot { seq, items }),
        (any::<u64>(), vec(sealed_strat(), 0..3))
            .prop_map(|(seq, slices)| TelemetryMsg::Slices { seq, slices }),
        (
            any::<u64>(),
            vec(
                (pipelet_strat(), string_strat(), entry_strat())
                    .prop_map(|(p, table, entry)| (p, Eviction { table, entry })),
                0..3,
            ),
        )
            .prop_map(|(seq, evictions)| TelemetryMsg::Evictions { seq, evictions }),
        (disposition_strat(), data_strat())
            .prop_map(|(disposition, data)| TelemetryMsg::Delivered { disposition, data }),
    ]
    .boxed()
}

fn message_strat() -> BoxedStrategy<Message> {
    prop_oneof![
        data_strat().prop_map(Message::Data),
        control_strat().prop_map(Message::Control),
        telemetry_strat().prop_map(Message::Telemetry),
    ]
    .boxed()
}

/// Recomputes the trailer of a frame stomped on purpose, so the damage
/// reaches the decoder stage a test is about instead of the checksum.
fn reseal(mut frame: Vec<u8>) -> Vec<u8> {
    let end = frame.len() - TRAILER_LEN;
    let crc = crc32(&frame[..end]);
    frame[end..].copy_from_slice(&crc.to_be_bytes());
    frame
}

// ---------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_message_round_trips(msg in message_strat()) {
        let frame = encode(&msg);
        prop_assert!(frame.len() >= HEADER_LEN + TRAILER_LEN);
        prop_assert_eq!(
            payload_len(&frame).unwrap(),
            frame.len() - HEADER_LEN - TRAILER_LEN,
            "header length prefix must match the payload"
        );
        let back = decode(&frame);
        prop_assert_eq!(back, Ok(msg));
    }

    #[test]
    fn every_truncation_is_a_typed_error(msg in message_strat()) {
        let frame = encode(&msg);
        // Every proper prefix must fail with a WireError — never a panic,
        // never a bogus success.
        for cut in 0..frame.len() {
            let r = decode(&frame[..cut]);
            prop_assert!(r.is_err(), "prefix of {cut} bytes decoded: {r:?}");
        }
        // Short prefixes specifically report Truncated with honest counts.
        for cut in 0..HEADER_LEN.min(frame.len()) {
            prop_assert_eq!(
                decode(&frame[..cut]),
                Err(WireError::Truncated { needed: HEADER_LEN, have: cut })
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected(msg in message_strat(), extra in 1usize..16) {
        let mut frame = encode(&msg);
        frame.resize(frame.len() + extra, 0xa5);
        prop_assert_eq!(decode(&frame), Err(WireError::TrailingBytes { extra }));
    }

    #[test]
    fn corrupt_headers_are_typed_errors(msg in message_strat(), byte in any::<u8>()) {
        let frame = encode(&msg);

        // Wrong magic.
        let mut bad = frame.clone();
        bad[0] ^= 0x40;
        let magic = u16::from_be_bytes([bad[0], bad[1]]);
        prop_assert_eq!(decode(&bad), Err(WireError::BadMagic(magic)));

        // Wrong version.
        if byte != WIRE_VERSION {
            let mut bad = frame.clone();
            bad[2] = byte;
            prop_assert_eq!(decode(&bad), Err(WireError::UnsupportedVersion(byte)));
        }

        // Unknown class: a checksum failure as sent, the class once
        // re-sealed.
        if byte > 2 {
            let mut bad = frame.clone();
            bad[3] = byte;
            prop_assert_eq!(decode(&bad), Err(WireError::Checksum));
            prop_assert_eq!(decode(&reseal(bad)), Err(WireError::UnknownClass(byte)));
        }
    }

    #[test]
    fn every_single_bit_flip_is_an_error(msg in message_strat()) {
        // Header, payload or trailer: the CRC-32 trailer catches every
        // single-bit flip, so no flip decodes to a valid, wrong message.
        let mut frame = encode(&msg);
        for bit in 0..frame.len() * 8 {
            frame[bit / 8] ^= 1 << (bit % 8);
            let r = decode(&frame);
            prop_assert!(r.is_err(), "flip of bit {} decoded: {:?}", bit, r);
            frame[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn single_bit_flips_never_panic(msg in message_strat(), at in any::<usize>()) {
        // A flipped bit anywhere — header, a count, a string length, a
        // snapshot's version — decodes to Ok or a typed error; a flipped
        // count cannot allocate past the bytes that are there.
        let mut frame = encode(&msg);
        let bit = at % (frame.len() * 8);
        frame[bit / 8] ^= 1 << (bit % 8);
        let _ = decode(&frame);
    }

    /// The two encodings of a snapshot pin each other: the frame codec and
    /// the JSON export format both reproduce the original exactly.
    #[test]
    fn snapshot_encodings_agree(snapshot in snapshot_strat(), pipelet in pipelet_strat()) {
        let frame = encode(&Message::Control(ControlMsg::RestoreState {
            seq: 2,
            pipelet,
            snapshot: snapshot.clone(),
        }));
        let Ok(Message::Control(ControlMsg::RestoreState { snapshot: wired, .. })) = decode(&frame)
        else {
            return Err(TestCaseError::fail("RestoreState did not decode as itself"));
        };
        let exported = StateSnapshot::from_json(&snapshot.to_json());
        prop_assert_eq!(&wired, &snapshot);
        prop_assert_eq!(exported, Ok(snapshot));
    }

    #[test]
    fn random_garbage_never_panics(bytes in vec(any::<u8>(), 0..256)) {
        // Totality: arbitrary byte soup decodes to Ok or a typed error,
        // and a valid header prefix never causes an oversized allocation.
        let _ = decode(&bytes);
        let _ = payload_len(&bytes);
    }
}

// ---------------------------------------------------------------------
// Deterministic edge cases
// ---------------------------------------------------------------------

/// A length prefix past [`MAX_PAYLOAD`] is rejected before any allocation.
#[test]
fn overlength_frames_are_rejected() {
    let mut frame = Vec::new();
    frame.extend_from_slice(&WIRE_MAGIC.to_be_bytes());
    frame.push(WIRE_VERSION);
    frame.push(0); // Data class.
    frame.extend_from_slice(&(u32::MAX).to_be_bytes());
    assert_eq!(
        decode(&frame),
        Err(WireError::Overlength {
            len: u32::MAX as usize,
            max: MAX_PAYLOAD,
        })
    );
    assert_eq!(
        payload_len(&frame),
        Err(WireError::Overlength {
            len: u32::MAX as usize,
            max: MAX_PAYLOAD,
        })
    );
}

/// Unknown control/telemetry tags inside a well-formed frame are typed.
#[test]
fn unknown_tags_are_typed_errors() {
    // Telemetry tag 2 carried version 4's digests; it names nothing now.
    for (class, tag) in [(1u8, 13u8), (2, 2), (2, 9)] {
        let mut frame = Vec::new();
        frame.extend_from_slice(&WIRE_MAGIC.to_be_bytes());
        frame.push(WIRE_VERSION);
        frame.push(class);
        frame.extend_from_slice(&1u32.to_be_bytes());
        frame.push(tag);
        frame.extend_from_slice(&[0; TRAILER_LEN]);
        assert_eq!(
            decode(&reseal(frame)),
            Err(WireError::UnknownTag { class, tag })
        );
    }
}

/// A string field holding invalid UTF-8 is `BadUtf8`, not a panic.
#[test]
fn invalid_utf8_in_strings_is_typed() {
    let msg = Message::Telemetry(TelemetryMsg::Nack {
        seq: 2,
        error: "xx".into(),
    });
    let mut frame = encode(&msg);
    // The error string's bytes are the last two before the trailer; stomp
    // them with a lone continuation byte.
    let n = frame.len() - TRAILER_LEN;
    frame[n - 2] = 0xff;
    frame[n - 1] = 0xfe;
    assert_eq!(decode(&reseal(frame)), Err(WireError::BadUtf8));
}

/// A nested length prefix larger than the remaining payload reports
/// `Truncated` instead of allocating on behalf of the corrupt field.
#[test]
fn corrupt_inner_length_prefix_is_truncated() {
    let msg = Message::Telemetry(TelemetryMsg::Nack {
        seq: 4,
        error: "abcd".into(),
    });
    let mut frame = encode(&msg);
    // The error string's length prefix sits 8 bytes before the trailer
    // (u32 len + 4 bytes of payload). Inflate it.
    let n = frame.len() - TRAILER_LEN;
    frame[n - 8..n - 4].copy_from_slice(&1_000_000u32.to_be_bytes());
    assert!(
        matches!(decode(&reseal(frame)), Err(WireError::Truncated { .. })),
        "inflated inner length must be a truncation error"
    );
}

/// One learned-NAT-shaped snapshot: `n` exact-match entries on a table
/// with aging on, plus a small register.
fn nat_snapshot(n: u32) -> StateSnapshot {
    StateSnapshot {
        version: SNAPSHOT_FORMAT_VERSION,
        program: "pipelet_ingress0".into(),
        clock: 77,
        tables: vec![TableSnapshot {
            name: "nat__nat_in".into(),
            idle_timeout: Some(64),
            entries: (0..n)
                .map(|i| TableEntry {
                    matches: vec![KeyMatch::Exact(Value::new(u128::from(0x0a00_0000 + i), 32))],
                    action: "nat__rewrite".into(),
                    action_args: vec![Value::new(u128::from(0xc0a8_0000 + i), 32)],
                    priority: 0,
                })
                .collect(),
        }],
        registers: vec![RegisterSnapshot {
            name: "nat__next_port".into(),
            cells: vec![u128::MAX, 1024],
        }],
    }
}

/// A `Snapshot` frame that loses bytes anywhere inside its state, or names
/// a snapshot version this build does not read, is a typed error — never a
/// shorter `Ok` with a pipelet (and every flow on it) missing.
#[test]
fn damaged_snapshot_frames_never_decode_shorter() {
    let pipelet = PipeletId {
        pipeline: 0,
        gress: Gress::Ingress,
    };
    let msg = |snapshot| {
        Message::Telemetry(TelemetryMsg::Snapshot {
            seq: 6,
            items: vec![(pipelet, nat_snapshot(1)), (pipelet, snapshot)],
        })
    };
    let frame = encode(&msg(nat_snapshot(3)));
    // Cut the payload at every byte and re-seal the header and trailer over
    // what is left, so the frame is well-formed and only its contents are
    // short.
    for keep in 0..frame.len() - HEADER_LEN - TRAILER_LEN {
        let mut cut = frame[..HEADER_LEN + keep].to_vec();
        cut[4..8].copy_from_slice(&(keep as u32).to_be_bytes());
        cut.extend_from_slice(&[0; TRAILER_LEN]);
        let cut = reseal(cut);
        assert!(
            matches!(decode(&cut), Err(WireError::Truncated { .. })),
            "payload cut to {keep} bytes decoded as {:?}",
            decode(&cut)
        );
    }
    let mut future = nat_snapshot(3);
    future.version = 99;
    assert!(
        matches!(decode(&encode(&msg(future))), Err(WireError::BadValue(m)) if m.contains("99")),
        "a version-99 snapshot must be refused by name"
    );
}

/// A seal counts the entries of the slice it carries and opens to that
/// slice; one whose count disagrees with what it carries does not open,
/// whichever way it is off.
#[test]
fn a_seal_counts_its_entries_and_opens_to_its_slice() {
    for n in [0, 1, 257] {
        let slice = nat_snapshot(n);
        let seal = SealedSlice::seal(&slice);
        assert_eq!(seal.entries, u64::from(n));
        assert!(!seal.is_empty(), "a slice with a table is not empty");
        assert_eq!(seal.open(), Ok(slice));
        for entries in [u64::from(n) + 1, u64::from(n).wrapping_sub(1)] {
            let miscounted = SealedSlice {
                entries,
                ..seal.clone()
            };
            assert!(
                matches!(miscounted.open(), Err(WireError::BadValue(m)) if m.contains("holds")),
                "a seal of {entries} entries over {n} opened"
            );
        }
    }
    let empty = SealedSlice::seal(&StateSnapshot::empty("pipelet"));
    assert!(empty.is_empty() && empty.entries == 0);
    assert_eq!(empty.open().map(|s| s.is_empty()), Ok(true));
}

/// A seal whose bytes are not one whole snapshot does not open: cut at
/// any byte, with a byte to spare, or naming a snapshot version this build
/// does not read.
#[test]
fn a_malformed_seal_is_refused() {
    let seal = SealedSlice::seal(&nat_snapshot(3));
    for keep in 1..seal.bytes.len() {
        let cut = SealedSlice {
            bytes: seal.bytes[..keep].to_vec(),
            ..seal.clone()
        };
        assert!(cut.open().is_err(), "a seal cut to {keep} bytes opened");
    }
    let mut long = seal.clone();
    long.bytes.push(0);
    assert_eq!(long.open(), Err(WireError::TrailingBytes { extra: 1 }));
    let mut future = nat_snapshot(3);
    future.version = 99;
    let future = SealedSlice::seal(&future);
    assert!(matches!(future.open(), Err(WireError::BadValue(m)) if m.contains("99")));
}

/// Version 1 carried state as JSON text, version 2 carried table names in
/// every hop, version 3 had no trailer, version 4 sent digests up a link
/// version 5 swapped a member in without its state, version 6 swapped
/// members in one at a time, each carrying every slice it would host, and
/// version 7 carried moved slices open, decoded and re-encoded by the
/// controller: a peer on any of them fails loudly at the header, before
/// any payload is interpreted.
#[test]
fn version_one_headers_are_rejected() {
    assert_eq!(WIRE_VERSION, 8);
    for old in [1, 2, 3, 4, 5, 6, 7] {
        let mut frame = encode(&Message::Control(ControlMsg::SnapshotState { seq: 2 }));
        frame[2] = old;
        assert_eq!(payload_len(&frame), Err(WireError::UnsupportedVersion(old)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Version 3's hop is fixed-size: whatever a member ran, each hop
    /// aboard adds the same number of bytes to a packet's frame, as a data
    /// frame and as the `Delivered` frame that ends its flight.
    #[test]
    fn each_hop_adds_one_constant_to_a_frame(
        data in data_strat(),
        extra in vec(hop_strat(), 1..6),
    ) {
        let frames = |hops: usize| {
            let mut d = data.clone();
            d.hops.extend(extra.iter().take(hops).copied());
            let delivered = Message::Telemetry(TelemetryMsg::Delivered {
                disposition: Disposition::Dropped,
                data: d.clone(),
            });
            (encode(&Message::Data(d)).len(), encode(&delivered).len())
        };
        let (data0, delivered0) = frames(0);
        let per_hop = frames(1).0 - data0;
        prop_assert_eq!(per_hop, 20);
        for hops in 0..=extra.len() {
            prop_assert_eq!(frames(hops), (data0 + hops * per_hop, delivered0 + hops * per_hop));
        }
    }
}

/// The format's oracle: an FNV-1a hash over the frames of a fixed corpus
/// (every control and telemetry variant, a 3-hop packet, a `Delivered` per
/// disposition, all five match kinds, a counter, a gauge and a histogram,
/// and a 257-entry NAT snapshot in a `Snapshot` reply and sealed in a
/// `Flip` and a `Slices` reply), each frame checked to decode as itself. A
/// round trip cannot see two fields of one type swapped in both directions
/// at once; this hash does. A second hash covers the payloads of every
/// frame but the `Flip` and the `Slices` reply: version 8 changed only
/// those two, so it keeps the value version 7 recorded, on the codec that
/// wrote each layout out twice, once per direction.
#[test]
fn frames_are_pinned() {
    let ingress = |pipeline| PipeletId {
        pipeline,
        gress: Gress::Ingress,
    };
    let egress = PipeletId {
        pipeline: 1,
        gress: Gress::Egress,
    };
    let entry = TableEntry {
        matches: vec![
            KeyMatch::Exact(Value::new(0xc0a8_0001, 32)),
            KeyMatch::Ternary(Value::new(6, 8), Value::new(0xff, 8)),
            KeyMatch::Lpm(Value::new(0x0a00_0000, 32), 8),
            KeyMatch::Range(Value::new(1, 16), Value::new(1024, 16)),
            KeyMatch::Any,
        ],
        action: "nat__rewrite".into(),
        action_args: vec![Value::new(0x0a01_0101, 32), Value::new(1, 1)],
        priority: -3,
    };
    let hop = |switch| HopSummary {
        switch,
        latency_ns: 650.25 * f64::from(switch + 1),
        recirculations: switch,
        resubmissions: 1,
    };
    let data = DataMsg {
        trace: 0x0123_4567_89ab_cdef,
        port: 13,
        latency_ns: 1234.5,
        inter_switch_hops: 2,
        hops: vec![hop(0), hop(1), hop(2)],
        bytes: (0..64).collect(),
    };
    let mut metrics = MetricsSnapshot::default();
    metrics
        .metrics
        .insert("packets_injected".into(), MetricValue::Counter(42));
    metrics
        .metrics
        .insert("queue_depth".into(), MetricValue::Gauge(-7));
    metrics.metrics.insert(
        "packet_latency_ns".into(),
        MetricValue::Histogram(HistogramSnapshot {
            buckets: vec![0, 3, 9, 1],
            count: 13,
            sum: 8_100,
        }),
    );
    let nf = || "nat".to_string();
    let corpus = vec![
        Message::Data(data.clone()),
        Message::Control(ControlMsg::Install {
            seq: 2,
            nf: nf(),
            table: "nat_in".into(),
            entry: entry.clone(),
        }),
        Message::Control(ControlMsg::Remove {
            seq: 4,
            nf: nf(),
            table: "nat_in".into(),
            entry: entry.clone(),
        }),
        Message::Control(ControlMsg::SetIdleTimeout {
            seq: 6,
            nf: nf(),
            table: "nat_in".into(),
            ticks: Some(64),
        }),
        Message::Control(ControlMsg::SetIdleTimeout {
            seq: 8,
            nf: nf(),
            table: "nat_in".into(),
            ticks: None,
        }),
        Message::Control(ControlMsg::AdvanceTime { seq: 10, ticks: 3 }),
        Message::Control(ControlMsg::DrainDigests { seq: 12 }),
        Message::Control(ControlMsg::ScrapeMetrics { seq: 14 }),
        Message::Control(ControlMsg::SnapshotState { seq: 16 }),
        Message::Control(ControlMsg::RestoreState {
            seq: 18,
            pipelet: egress,
            snapshot: nat_snapshot(2),
        }),
        Message::Control(ControlMsg::Flip {
            seq: 20,
            staged: 5,
            state: vec![
                (ingress(0), SealedSlice::seal(&nat_snapshot(257))),
                (egress, SealedSlice::seal(&nat_snapshot(0))),
            ],
        }),
        Message::Control(ControlMsg::SnapshotSlices {
            seq: 22,
            slices: vec![(nf(), ingress(0)), ("fw".into(), egress)],
        }),
        Message::Control(ControlMsg::Retire { seq: 24 }),
        Message::Control(ControlMsg::Shutdown { seq: 26 }),
        Message::Control(ControlMsg::RegisterLearnPolicy {
            seq: 28,
            nf: nf(),
            stream: "nat_flow".into(),
            policy: LearnPolicy {
                table: "nat_in".into(),
                action: "restore_dst".into(),
                key_map: vec![2, 1],
                arg_map: vec![0],
            },
        }),
        Message::Telemetry(TelemetryMsg::Ack { seq: 2, info: 1 }),
        Message::Telemetry(TelemetryMsg::Nack {
            seq: 4,
            error: "no such table".into(),
        }),
        Message::Telemetry(TelemetryMsg::DrainDone {
            seq: 12,
            digests: 3,
            installed: 2,
        }),
        Message::Telemetry(TelemetryMsg::Metrics {
            seq: 14,
            snapshot: metrics,
            rejected_frames: 1,
        }),
        Message::Telemetry(TelemetryMsg::Snapshot {
            seq: 16,
            items: vec![
                (ingress(0), nat_snapshot(257)),
                (ingress(1), nat_snapshot(1)),
            ],
        }),
        Message::Telemetry(TelemetryMsg::Slices {
            seq: 22,
            slices: vec![
                SealedSlice::seal(&nat_snapshot(257)),
                SealedSlice::seal(&StateSnapshot::empty("")),
            ],
        }),
        Message::Telemetry(TelemetryMsg::Evictions {
            seq: 10,
            evictions: vec![(
                ingress(1),
                Eviction {
                    table: "nat__nat_in".into(),
                    entry,
                },
            )],
        }),
        Message::Telemetry(TelemetryMsg::Delivered {
            disposition: Disposition::Emitted { port: 7 },
            data: data.clone(),
        }),
        Message::Telemetry(TelemetryMsg::Delivered {
            disposition: Disposition::Dropped,
            data: data.clone(),
        }),
        Message::Telemetry(TelemetryMsg::Delivered {
            disposition: Disposition::ToCpu,
            data,
        }),
    ];
    let fnv = |hash: u64, bytes: &[u8]| {
        (bytes.iter()).fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    };
    let (mut frames, mut kept) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
    for msg in corpus {
        let frame = encode(&msg);
        let sealed = matches!(
            msg,
            Message::Control(ControlMsg::Flip { .. })
                | Message::Telemetry(TelemetryMsg::Slices { .. })
        );
        assert_eq!(decode(&frame), Ok(msg));
        frames = fnv(frames, &frame);
        if !sealed {
            kept = fnv(kept, &frame[HEADER_LEN..frame.len() - TRAILER_LEN]);
        }
    }
    assert_eq!(
        kept, 0x3e60_b5bd_3fdf_66b0,
        "the payloads of every frame but the Flip and the Slices reply hash to {kept:#018x}"
    );
    assert_eq!(
        frames, 0x6671_5e94_00ba_759b,
        "the corpus hashes to {frames:#018x}"
    );
}
