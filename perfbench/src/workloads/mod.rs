//! The four workloads. Each builds its inputs from the seed, sets up,
//! runs timed ops until the window closes, and checks every output
//! against a reference that does not share the timed code path.

pub mod chip_extract;
pub mod edit_loop;
pub mod service_mix;
pub mod signoff;

/// Set-up repetitions of an untraced run; `setup_s` is their median.
pub fn setups(workload: &str) -> usize {
    match workload {
        "service_mix" => 7,
        _ => 3,
    }
}

/// The `i`-th input seed derived from a run's seed, for workloads that
/// spread a run over several generated chips.
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64)
}
