//! Keygen RNG isolation: the one-time-key search must not leak into the
//! host RNG stream.
//!
//! Prime search rejects a data-dependent number of candidates, so a
//! source that fed its simulation RNG straight into keygen shifted
//! `ctx.rng` by a different amount on every keygen-internals change
//! (sieve width, Miller–Rabin rounds) and invalidated every matrix
//! golden. Keygen therefore forks a sub-RNG with exactly one parent draw.
//! The source does not mint its one-time key itself — the cell runner
//! hands it a keypair minted once per process — but it still makes that
//! one parent draw at start, so the host stream does not depend on where
//! the key came from. These tests pin the contract at both layers.

use nn_lab::cell::{run_cell, CellSpec, CellTuning, StackKind};
use nn_lab::{AdversarySpec, EventTimelineSpec, LinkProfileSpec, TopologySpec, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn neutralized_cell() -> CellSpec {
    CellSpec {
        topology: TopologySpec::chain(),
        link: LinkProfileSpec::Clean,
        workload: WorkloadSpec::voip_default(),
        adversary: AdversarySpec::content_dpi_default(),
        stack: StackKind::Neutralized,
        events: EventTimelineSpec::Static,
        probes: false,
        seed: 11,
    }
}

/// The mechanism: forking through `nn_crypto::keygen_rng` advances the
/// parent by exactly one draw, so two parents that fork keygens of
/// *different* key sizes — different candidate-rejection counts — stay
/// in lockstep afterwards.
#[test]
fn keygen_rejection_count_never_reaches_parent_stream() {
    let mut parent_a = StdRng::seed_from_u64(0xD06);
    let mut parent_b = StdRng::seed_from_u64(0xD06);
    let mut sub_a = nn_crypto::keygen_rng(&mut parent_a);
    let mut sub_b = nn_crypto::keygen_rng(&mut parent_b);
    // 320- vs 768-bit keygen walk very different numbers of candidates.
    let _ = nn_crypto::generate_keypair(&mut sub_a, 320);
    let _ = nn_crypto::generate_keypair(&mut sub_b, 768);
    for i in 0..128 {
        assert_eq!(
            parent_a.gen::<u64>(),
            parent_b.gen::<u64>(),
            "parent streams diverged at draw {i}: keygen leaked into the \
             host RNG stream"
        );
    }
}

/// The sim-level consequence: two cells identical except for the one-time
/// key size produce *identical flow metrics* — the extra candidate
/// rejections of a larger key never perturb packet timing or contents
/// downstream of key setup.
#[test]
fn cell_flow_metrics_invariant_to_onetime_key_size() {
    let spec = neutralized_cell();
    let mut small = CellTuning::fast();
    small.onetime_rsa_bits = 320;
    let mut large = CellTuning::fast();
    large.onetime_rsa_bits = 512;
    let a = run_cell(&spec, &small);
    let b = run_cell(&spec, &large);
    // Key setup itself differs (bigger key on the wire), but the echo
    // application's packet accounting must match exactly: same schedule,
    // same delivery, same replies.
    assert_eq!(a.flows[0].tx_packets, b.flows[0].tx_packets);
    assert_eq!(a.flows[0].rx_packets, b.flows[0].rx_packets);
    assert_eq!(a.replies, b.replies);
}

/// Keygen work is observable per cell as a count of logical keygens: a
/// neutralized cell counts the one one-time key its source takes up
/// (minted once per process, counted once per cell), a plain cell none.
#[test]
fn keygen_count_surfaces_in_cell_counters() {
    let tuning = CellTuning::fast();
    let neut = run_cell(&neutralized_cell(), &tuning);
    let keygens = neut
        .counters
        .iter()
        .find(|(name, _)| name == "source.keygens")
        .map(|(_, v)| *v);
    assert_eq!(keygens, Some(1), "one one-time key per neutralized cell");

    let mut plain_spec = neutralized_cell();
    plain_spec.stack = StackKind::Plain;
    let plain = run_cell(&plain_spec, &tuning);
    assert!(
        !plain
            .counters
            .iter()
            .any(|(name, _)| name == "source.keygens"),
        "plain cells mint no one-time keys (zero counters are filtered)"
    );
}
