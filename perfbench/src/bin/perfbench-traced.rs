//! Traced passes for `perfbench --trace 1`: the same workloads with
//! allocation counting on.

#[global_allocator]
static ALLOC: perfbench::trace::CountingAlloc = perfbench::trace::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::main(true)
}
