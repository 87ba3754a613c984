//! Untraced entry point; see the library docs for usage.

fn main() -> std::process::ExitCode {
    perfbench::main(false)
}
