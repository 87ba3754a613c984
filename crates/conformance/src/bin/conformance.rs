//! Differential conformance runner.
//!
//! ```text
//! conformance --seed 1983 --cases 256                 # fuzz all six backends
//! conformance --seed 7 --cases 64 --backends hext     # reference vs hext only
//! conformance --corpus                                # replay the golden corpus
//! conformance --record-corpus                         # refresh corpus signatures
//! conformance --seed 1983 --emit-case 54              # print one case's layout
//! conformance --incremental --seed 1983 --cases 64    # edit-loop incremental check
//! ```
//!
//! Exit status: 0 when every case agrees (and the corpus passes),
//! 1 on divergence or corpus failure, 2 on usage errors.
//!
//! Divergent cases are shrunk to minimal repros and written to
//! `conformance/repros/<case-seed>.cif` (override with
//! `--repro-dir`); triage them by fixing the backend or, for vetted
//! behaviour, promoting the repro into `conformance/corpus/`.

use std::path::PathBuf;
use std::process::ExitCode;

use ace_conformance::backends::{parse_backend_list, BackendId};
use ace_conformance::corpus;
use ace_conformance::runner::{run_with, Check, RunConfig};
use ace_conformance::shrink::DEFAULT_BUDGET;

const USAGE: &str = "usage: conformance [--seed S] [--cases N] [--backends a,b,c]
                   [--repro-dir DIR] [--corpus-dir DIR] [--shrink-budget N]
                   [--quiet] [--corpus | --record-corpus | --incremental]

modes (default: fuzz)
  --corpus          replay conformance/corpus/*.cif against canonical signatures
  --record-corpus   regenerate the corpus signature index from the reference
  --incremental     edit-loop check: random edits per case, incremental
                    re-extraction vs from-scratch after each round

fuzz options
  --seed S          run seed (default 1983)
  --cases N         number of cases (default 256)
  --backends LIST   comma-separated subset of: ace-flat, ace-lazy, ace-banded,
                    hext, partlist, cifplot (reference ace-flat is always
                    included)
  --repro-dir DIR   where shrunken repros go (default conformance/repros)
  --shrink-budget N oracle-call budget per shrink (default 1500)
  --lint-agreement  also require identical ace_lint diagnostics from
                    every backend (strict-comparison cases only)
  --parasitics      also require identical per-net parasitic totals from
                    every backend, with the reference checked against a
                    brute-force union-geometry oracle
  --drc             also require the ace_drc sweep checker to match a
                    brute-force compressed-grid oracle and stay invariant
                    under re-fracturing (reversed feed, band splits)
                    (at most one of --lint-agreement, --parasitics, --drc)
  --quiet           only print the summary
  --emit-case I     print case I's generated CIF (for triage) and exit";

struct Args {
    seed: u64,
    cases: u32,
    backends: Vec<BackendId>,
    repro_dir: PathBuf,
    corpus_dir: PathBuf,
    shrink_budget: u32,
    /// The check and the flag that chose it.
    check: Option<(Check, &'static str)>,
    quiet: bool,
    mode: Mode,
}

#[derive(PartialEq)]
enum Mode {
    Fuzz,
    Corpus,
    RecordCorpus,
    EmitCase(u32),
    Incremental,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1983,
        cases: 256,
        backends: BackendId::ALL.to_vec(),
        repro_dir: PathBuf::from("conformance/repros"),
        corpus_dir: PathBuf::from("conformance/corpus"),
        shrink_budget: DEFAULT_BUDGET,
        check: None,
        quiet: false,
        mode: Mode::Fuzz,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--cases" => {
                args.cases = value("--cases")?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?;
            }
            "--backends" => args.backends = parse_backend_list(&value("--backends")?)?,
            "--repro-dir" => args.repro_dir = PathBuf::from(value("--repro-dir")?),
            "--corpus-dir" => args.corpus_dir = PathBuf::from(value("--corpus-dir")?),
            "--shrink-budget" => {
                args.shrink_budget = value("--shrink-budget")?
                    .parse()
                    .map_err(|e| format!("--shrink-budget: {e}"))?;
            }
            "--lint-agreement" | "--parasitics" | "--drc" => {
                let (check, name) = match flag.as_str() {
                    "--lint-agreement" => (Check::Lints, "--lint-agreement"),
                    "--parasitics" => (Check::Parasitics, "--parasitics"),
                    _ => (Check::Drc, "--drc"),
                };
                if let Some((_, first)) = args.check {
                    return Err(format!("{name} conflicts with {first}: one check per run"));
                }
                args.check = Some((check, name));
            }
            "--quiet" => args.quiet = true,
            "--emit-case" => {
                args.mode = Mode::EmitCase(
                    value("--emit-case")?
                        .parse()
                        .map_err(|e| format!("--emit-case: {e}"))?,
                );
            }
            "--corpus" => args.mode = Mode::Corpus,
            "--record-corpus" => args.mode = Mode::RecordCorpus,
            "--incremental" => args.mode = Mode::Incremental,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if let (Some((_, name)), false) = (args.check, args.mode == Mode::Fuzz) {
        return Err(format!("{name} applies only to fuzz runs"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("conformance: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.mode {
        Mode::Corpus => replay_corpus(&args),
        Mode::RecordCorpus => record_corpus(&args),
        Mode::EmitCase(index) => emit_case(&args, index),
        Mode::Incremental => incremental(&args),
        Mode::Fuzz => fuzz(&args),
    }
}

fn incremental(args: &Args) -> ExitCode {
    use ace_conformance::incremental::{run_edit_cases, EDIT_ROUNDS};

    println!(
        "conformance: incremental edit loop, seed {} cases {} ({} rounds each)",
        args.seed, args.cases, EDIT_ROUNDS
    );
    let quiet = args.quiet;
    let failures = run_edit_cases(args.seed, args.cases, |index, failure| {
        if let Some(f) = failure {
            println!("{f}");
        } else if !quiet && (index + 1) % 32 == 0 {
            println!("case {}/{} ok", index + 1, args.cases);
        }
    });
    if failures.is_empty() {
        println!(
            "{} edit cases, zero incremental/full mismatches",
            args.cases
        );
        ExitCode::SUCCESS
    } else {
        println!("{} edit cases, {} mismatches", args.cases, failures.len());
        ExitCode::FAILURE
    }
}

fn emit_case(args: &Args, index: u32) -> ExitCode {
    use ace_conformance::harness::case_seed;
    use ace_conformance::strategies::LayoutStrategy;
    use rand::SeedableRng as _;

    let seed = case_seed(args.seed, index);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let strategy = LayoutStrategy::sample(&mut rng);
    eprintln!(
        "( run seed {} case {index} [case seed {seed}] strategy {} )",
        args.seed,
        strategy.name()
    );
    print!("{}", strategy.generate());
    ExitCode::SUCCESS
}

fn replay_corpus(args: &Args) -> ExitCode {
    match corpus::replay(&args.corpus_dir, &args.backends) {
        Err(e) => {
            eprintln!("conformance: corpus replay failed: {e}");
            ExitCode::from(2)
        }
        Ok(report) => {
            for case in &report.cases {
                match &case.failure {
                    None => {
                        if !args.quiet {
                            println!("corpus {} ok", case.file);
                        }
                    }
                    Some(why) => println!("corpus {} FAILED: {why}", case.file),
                }
            }
            let failed = report.failures().count();
            println!("corpus: {} layouts, {} failed", report.cases.len(), failed);
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

fn record_corpus(args: &Args) -> ExitCode {
    match corpus::record(&args.corpus_dir) {
        Ok(n) => {
            println!(
                "recorded canonical signatures for {n} layouts in {}",
                args.corpus_dir.join(corpus::SIGNATURES_FILE).display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("conformance: {e}");
            ExitCode::from(2)
        }
    }
}

fn fuzz(args: &Args) -> ExitCode {
    let config = RunConfig {
        seed: args.seed,
        cases: args.cases,
        backends: args.backends.clone(),
        repro_dir: Some(args.repro_dir.clone()),
        shrink_budget: args.shrink_budget,
        check: args.check.map_or(Check::Netlists, |(check, _)| check),
    };
    let names: Vec<&str> = config.backends.iter().map(|b| b.name()).collect();
    println!(
        "conformance: seed {} cases {} backends {}{}",
        config.seed,
        config.cases,
        names.join(","),
        match config.check {
            Check::Netlists => "",
            Check::Lints => " (+lint agreement)",
            Check::Parasitics => " (+parasitics)",
            Check::Drc => " (+drc)",
        }
    );
    let quiet = args.quiet;
    let summary = match run_with(&config, |index, strategy, divergence| {
        if let Some(d) = divergence {
            println!(
                "case {index} [{strategy}]: DIVERGED ({} vs {})",
                d.backend.name(),
                d.reference.name()
            );
        } else if !quiet && (index + 1) % 32 == 0 {
            println!("case {}/{} ok", index + 1, config.cases);
        }
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("conformance: {e}");
            return ExitCode::from(2);
        }
    };

    let mix: Vec<String> = summary
        .by_strategy
        .iter()
        .map(|(name, n)| format!("{name}:{n}"))
        .collect();
    println!("strategy mix: {}", mix.join(" "));
    if summary.divergent.is_empty() {
        println!("{} cases, zero divergences", summary.cases);
        return ExitCode::SUCCESS;
    }
    for case in &summary.divergent {
        println!(
            "DIVERGENCE seed {} case {} [{}]: {} (shrunk {} -> {} boxes, {} oracle calls)",
            case.case_seed,
            case.index,
            case.strategy,
            case.divergence.backend.name(),
            case.shrink.boxes_before,
            case.shrink.boxes_after,
            case.shrink.oracle_calls,
        );
        if let Some(path) = &case.repro_path {
            println!("  repro: {}", path.display());
        }
        for line in case.divergence.detail.lines().take(12) {
            println!("  {line}");
        }
    }
    println!(
        "{} cases, {} divergences",
        summary.cases,
        summary.divergent.len()
    );
    ExitCode::FAILURE
}
