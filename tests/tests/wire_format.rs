//! Property tests for the cluster wire format: every generated message
//! survives an encode → decode round trip bit-exactly, and every corrupted
//! frame — truncated at any byte, over-length, wrong magic/version/class/tag
//! — decodes to a typed [`WireError`], never a panic. State snapshots ride
//! the same properties, and a differential property pins the frame encoding
//! and the JSON export encoding of a [`StateSnapshot`] against each other.

use dejavu_asic::state::{RegisterSnapshot, TableSnapshot, SNAPSHOT_FORMAT_VERSION};
use dejavu_asic::switch::Disposition;
use dejavu_asic::tables::{DigestRecord, Eviction};
use dejavu_asic::{Gress, PipeletId, StateSnapshot};
use dejavu_core::transport::wire::{
    decode, encode, payload_len, ControlMsg, DataMsg, HopSummary, Message, TelemetryMsg, WireError,
    HEADER_LEN, MAX_PAYLOAD, WIRE_MAGIC, WIRE_VERSION,
};
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
    (
        0u32..16,
        latency_strat(),
        any::<u32>(),
        any::<u32>(),
        vec(string_strat(), 0..4),
        vec(string_strat(), 0..4),
    )
        .prop_map(
            |(switch, latency_ns, recirculations, resubmissions, tables_applied, tables_hit)| {
                HopSummary {
                    switch,
                    latency_ns,
                    recirculations,
                    resubmissions,
                    tables_applied,
                    tables_hit,
                }
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
        any::<u64>().prop_map(|seq| ControlMsg::SwapMember { seq }),
        any::<u64>().prop_map(|seq| ControlMsg::Shutdown { seq }),
    ]
    .boxed()
}

fn digest_strat() -> BoxedStrategy<DigestRecord> {
    (string_strat(), vec(value_strat(), 0..4))
        .prop_map(|(name, values)| DigestRecord { name, values })
        .boxed()
}

fn telemetry_strat() -> BoxedStrategy<TelemetryMsg> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(seq, info)| TelemetryMsg::Ack { seq, info }),
        (any::<u64>(), string_strat()).prop_map(|(seq, error)| TelemetryMsg::Nack { seq, error }),
        (0u32..8, vec((0u32..4, digest_strat()), 0..4))
            .prop_map(|(switch, records)| TelemetryMsg::Digests { switch, records }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(seq, digests)| TelemetryMsg::DrainDone { seq, digests }),
        (any::<u64>(), string_strat()).prop_map(|(seq, json)| TelemetryMsg::Metrics { seq, json }),
        (any::<u64>(), vec((pipelet_strat(), snapshot_strat()), 0..3))
            .prop_map(|(seq, items)| TelemetryMsg::Snapshot { seq, items }),
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

// ---------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_message_round_trips(msg in message_strat()) {
        let frame = encode(&msg);
        prop_assert!(frame.len() >= HEADER_LEN);
        prop_assert_eq!(
            payload_len(&frame).unwrap(),
            frame.len() - HEADER_LEN,
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

        // Unknown class.
        if byte > 2 {
            let mut bad = frame.clone();
            bad[3] = byte;
            prop_assert_eq!(decode(&bad), Err(WireError::UnknownClass(byte)));
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
    for (class, tag) in [(1u8, 10u8), (2, 8)] {
        let mut frame = Vec::new();
        frame.extend_from_slice(&WIRE_MAGIC.to_be_bytes());
        frame.push(WIRE_VERSION);
        frame.push(class);
        frame.extend_from_slice(&1u32.to_be_bytes());
        frame.push(tag);
        assert_eq!(decode(&frame), Err(WireError::UnknownTag { class, tag }));
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
    // The error string's bytes are the last two; stomp them with a lone
    // continuation byte.
    let n = frame.len();
    frame[n - 2] = 0xff;
    frame[n - 1] = 0xfe;
    assert_eq!(decode(&frame), Err(WireError::BadUtf8));
}

/// A nested length prefix larger than the remaining payload reports
/// `Truncated` instead of allocating on behalf of the corrupt field.
#[test]
fn corrupt_inner_length_prefix_is_truncated() {
    let msg = Message::Telemetry(TelemetryMsg::Metrics {
        seq: 4,
        json: "abcd".into(),
    });
    let mut frame = encode(&msg);
    // The JSON string's length prefix sits 8 bytes before the end
    // (u32 len + 4 bytes of payload). Inflate it.
    let n = frame.len();
    frame[n - 8..n - 4].copy_from_slice(&1_000_000u32.to_be_bytes());
    assert!(
        matches!(decode(&frame), Err(WireError::Truncated { .. })),
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
    // Cut the payload at every byte and re-seal the header over what is
    // left, so the frame is well-formed and only its contents are short.
    for keep in 0..frame.len() - HEADER_LEN {
        let mut cut = frame[..HEADER_LEN + keep].to_vec();
        cut[4..8].copy_from_slice(&(keep as u32).to_be_bytes());
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

/// Version 1 carried state as JSON text: a version-1 peer fails loudly at
/// the header, before any payload is interpreted.
#[test]
fn version_one_headers_are_rejected() {
    assert_eq!(WIRE_VERSION, 2);
    let mut frame = encode(&Message::Control(ControlMsg::SnapshotState { seq: 2 }));
    frame[2] = 1;
    assert_eq!(payload_len(&frame), Err(WireError::UnsupportedVersion(1)));
}
