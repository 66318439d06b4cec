//! Round-trip properties of the report wire types. For arbitrary values
//! — NaN, ±∞ and −0.0 floats, strings that need escaping, empty and
//! nested lists — render → parse → decode → render gives back the same
//! bytes. Shard files cross process and host boundaries, so a value that
//! did not survive the trip would make a sharded run differ from a
//! single-process one.

use nn_lab::json::Json;
use nn_lab::schema::{Decode, Encode};
use nn_lab::{CellFlow, CellReport, MatrixCell, ProbeSummary, ShardReport};
use proptest::prelude::*;
use std::ops::Range;

/// A strategy drawing from a generator function.
struct Gen<T>(fn(&mut TestRng) -> T);

impl<T> Strategy for Gen<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Bit patterns uniform bits almost never hit: NaNs (one negative, with
/// a payload), ±∞, ±0 and the smallest subnormal.
const SPECIAL_FLOAT_BITS: [u64; 7] = [
    0x7ff8_0000_0000_0000,
    0xfff8_0000_0000_0001,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    0x8000_0000_0000_0000,
    0,
    1,
];

/// `f64::from_bits` of arbitrary bits; one draw in four takes a special
/// pattern instead.
fn float(rng: &mut TestRng) -> f64 {
    let bits = any::<u64>().generate(rng);
    if rng.below(4) == 0 {
        f64::from_bits(SPECIAL_FLOAT_BITS[(bits % 7) as usize])
    } else {
        f64::from_bits(bits)
    }
}

fn text(rng: &mut TestRng) -> String {
    "[a-z\"\\\n\u{1}/é😀]{0,8}".generate(rng)
}

fn list<T>(rng: &mut TestRng, len: Range<u64>, item: fn(&mut TestRng) -> T) -> Vec<T> {
    let n = len.start + rng.below(len.end - len.start);
    (0..n).map(|_| item(rng)).collect()
}

fn flow(rng: &mut TestRng) -> CellFlow {
    CellFlow {
        flow: text(rng),
        tx_packets: rng.next_u64(),
        rx_packets: rng.next_u64(),
        delivery_ratio: float(rng),
        goodput_bps: float(rng),
        mean_delay_ms: float(rng),
        p50_delay_ms: float(rng),
        p95_delay_ms: float(rng),
        p99_delay_ms: float(rng),
        jitter_ms: float(rng),
        ce_marks: rng.next_u64(),
    }
}

fn probe(rng: &mut TestRng) -> ProbeSummary {
    ProbeSummary {
        plain_tx: rng.next_u64(),
        plain_rx: rng.next_u64(),
        plain_rtt_ms: float(rng),
        neut_tx: rng.next_u64(),
        neut_rx: rng.next_u64(),
        neut_rtt_ms: float(rng),
    }
}

fn counter(rng: &mut TestRng) -> (String, u64) {
    (text(rng), rng.next_u64())
}

/// A raw cell, as a worker emits it: no finalize-owned context.
fn cell(rng: &mut TestRng) -> MatrixCell {
    MatrixCell {
        index: any::<usize>().generate(rng),
        topology: text(rng),
        link: text(rng),
        workload: text(rng),
        adversary: text(rng),
        stack: text(rng),
        events: text(rng),
        seed_axis: rng.next_u64(),
        sim_seed: rng.next_u64(),
        report: CellReport {
            flows: list(rng, 0..4, flow),
            replies: rng.next_u64(),
            verified_return_blocks: rng.next_u64(),
            policy_drops: rng.next_u64(),
            counters: list(rng, 0..4, counter),
            events: rng.next_u64(),
            probe: (rng.below(2) == 0).then(|| probe(rng)),
        },
        relative: None,
        verdict: None,
    }
}

fn shard(rng: &mut TestRng) -> ShardReport {
    ShardReport {
        matrix: text(rng),
        shard: any::<usize>().generate(rng),
        shards: any::<usize>().generate(rng),
        total_cells: any::<usize>().generate(rng),
        pool_allocs: rng.next_u64(),
        pool_recycled: rng.next_u64(),
        cells: list(rng, 0..3, cell),
    }
}

/// render → parse → decode → render reproduces the first rendering.
fn roundtrips<T: Encode + Decode>(value: &T) -> Result<(), TestCaseError> {
    let text = value.encode().render();
    let parsed = Json::parse(&text).map_err(TestCaseError::Fail)?;
    let decoded = T::decode(&parsed).map_err(TestCaseError::Fail)?;
    prop_assert_eq!(decoded.encode().render(), text);
    Ok(())
}

proptest! {
    #[test]
    fn cell_flows_roundtrip(flow in Gen(flow)) {
        roundtrips(&flow)?;
    }

    #[test]
    fn probe_summaries_roundtrip(probe in Gen(probe)) {
        roundtrips(&probe)?;
    }

    #[test]
    fn counters_roundtrip(counters in Gen(|rng| list(rng, 0..6, counter))) {
        roundtrips(&counters)?;
    }

    #[test]
    fn raw_matrix_cells_roundtrip(cell in Gen(cell)) {
        roundtrips(&cell)?;
    }

    #[test]
    fn shard_reports_roundtrip(shard in Gen(shard)) {
        let text = shard.to_json();
        let decoded = ShardReport::from_json(&text).map_err(TestCaseError::Fail)?;
        prop_assert_eq!(decoded.to_json(), text);
    }
}

/// The float draw hits every value JSON cannot spell as a number, so
/// the properties above cover NaN → `null` → NaN.
#[test]
fn float_draws_cover_the_special_values() {
    let mut rng = TestRng::deterministic("float_draws");
    let draws: Vec<f64> = (0..400).map(|_| float(&mut rng)).collect();
    assert!(draws.iter().any(|f| f.is_nan()));
    assert!(draws.contains(&f64::INFINITY) && draws.contains(&f64::NEG_INFINITY));
    assert!(draws.iter().any(|f| *f == 0.0 && f.is_sign_negative()));
}
