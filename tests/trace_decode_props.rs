//! Round-trip properties for the trace record decoders: for each record
//! kind something reads back, `decode` of the writer's line gives back
//! the value that was written. Strings carry the characters the writer
//! escapes, optionals are `null` half the time, and `CellEvent.seconds`
//! is drawn from every bit pattern, so non-finite times (written as
//! `null`) are covered too.

use gorder_obs::json::Fields;
use gorder_obs::{CellEvent, GateEvent, OrderEvent, RowEvent, RunManifest, TraceEvent};
use proptest::prelude::*;

/// Strings over letters plus every character class the writer treats
/// specially: quotes, backslashes, control characters, non-ASCII.
fn text() -> &'static str {
    "[a-z\"\\\\\\n\\t\u{1}é ,:{}]{0,8}"
}

fn opt_text() -> impl Strategy<Value = Option<String>> {
    (any::<bool>(), text()).prop_map(|(some, s)| some.then_some(s))
}

/// Any finite `f64`, from its bit pattern (non-finite patterns map to 0).
fn finite() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        Some(f64::from_bits(bits))
            .filter(|v| v.is_finite())
            .unwrap_or(0.0)
    })
}

fn u64s() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 0..5)
}

fn decode<T>(line: &str, decode: fn(&Fields) -> Result<T, String>) -> T {
    let fields = Fields::parse(line).unwrap_or_else(|e| panic!("{e} in {line}"));
    decode(&fields).unwrap_or_else(|e| panic!("{e} in {line}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn manifest_roundtrips(
        (tool, dataset, ordering, algo) in (text(), opt_text(), opt_text(), opt_text()),
        (threads, window, config_hash, started) in
            (any::<u64>(), (any::<bool>(), any::<u64>()), any::<u64>(), any::<u64>()),
    ) {
        let m = RunManifest {
            tool,
            dataset,
            ordering,
            algo,
            threads,
            window: window.0.then_some(window.1),
            config_hash,
            started_unix_secs: started,
        };
        prop_assert_eq!(decode(&m.to_json_line(), RunManifest::decode), m);
    }

    #[test]
    fn cell_roundtrips_with_null_seconds_as_nan(
        (dataset, ordering, algo, status) in (text(), text(), text(), text()),
        (bits, checksum) in (any::<u64>(), any::<u64>()),
    ) {
        let c = CellEvent {
            dataset,
            ordering,
            algo,
            status,
            seconds: f64::from_bits(bits),
            checksum,
        };
        let back = decode(&TraceEvent::Cell(c.clone()).to_json_line(), CellEvent::decode);
        if c.seconds.is_finite() {
            prop_assert_eq!(back, c);
        } else {
            prop_assert!(back.seconds.is_nan(), "{:?}", back);
            prop_assert_eq!(back, CellEvent { seconds: back.seconds, ..c });
        }
    }

    #[test]
    fn row_roundtrips(
        (table, key) in (text(), text()),
        cells in proptest::collection::vec(text(), 0..5),
    ) {
        let r = RowEvent { table, key, cells };
        let back = decode(&TraceEvent::Row(r.clone()).to_json_line(), RowEvent::decode);
        prop_assert_eq!(back, r);
    }

    #[test]
    fn gate_roundtrips(
        (mode, dataset, ordering, algo) in (text(), text(), text(), text()),
        (checksum, iterations, edges_relaxed, refs) in
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (level_misses, reuse_counts, (mem_accesses, ops, reuse_total, pairs), reuse_sum) in
            (u64s(), u64s(), (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), finite()),
        (speedup, sign_p, ci_lo, ci_hi) in (finite(), finite(), finite(), finite()),
    ) {
        let g = GateEvent {
            mode,
            dataset,
            ordering,
            algo,
            checksum,
            iterations,
            edges_relaxed,
            refs,
            level_misses,
            mem_accesses,
            ops,
            reuse_total,
            reuse_sum,
            reuse_counts,
            pairs,
            speedup,
            sign_p,
            ci_lo,
            ci_hi,
        };
        let back = decode(&TraceEvent::Gate(g.clone()).to_json_line(), GateEvent::decode);
        prop_assert_eq!(back, g);
    }

    #[test]
    fn order_roundtrips(
        (dataset, name, params, identity) in (opt_text(), text(), text(), text()),
        (status, seed, graph_digest, seconds) in (text(), any::<u64>(), any::<u64>(), finite()),
        (nodes_placed, heap_increments, heap_decrements, heap_pops) in
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (threads_used, cache_hit) in (any::<u64>(), any::<bool>()),
    ) {
        let o = OrderEvent {
            dataset,
            name,
            params,
            seed,
            graph_digest,
            identity,
            status,
            seconds,
            nodes_placed,
            heap_increments,
            heap_decrements,
            heap_pops,
            threads_used,
            cache_hit,
        };
        let back = decode(&TraceEvent::Order(o.clone()).to_json_line(), OrderEvent::decode);
        prop_assert_eq!(back, o);
    }
}
