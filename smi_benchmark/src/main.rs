//! `smi_benchmark` — the repo's benchmark of the functional plane (`smi`,
//! `smi_wire`, `smi_topology`), measured from outside through public
//! functions. See `README.md` beside this package for the workloads, the
//! metrics and how they interact.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one workload, one JSON result line
//! run.sh [--seed N] [--seconds S] [--workload W] [--traced]   every workload, out/results.json
//! run.sh --aa [--runs R]                                 the suite twice, medians compared
//! run.sh --smoke                                         msgs ÷ 50, a few seconds, verification only
//! ```

mod api;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use serde::Deserialize;

use metrics::{measure, Def, Measured, Opts, END_TO_END, PER_LAYER};
use workloads::{Spec, SPECS};

/// The run length `BENCHMARK.json` fixes, used when `--seconds` is absent.
const RUN_SECONDS: f64 = 20.0;

const LOOPBACK_NOTE: &str =
    "UDS traffic crosses the host's loopback (a Unix-domain socket), not a real link";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `--trace 0|1`: present in the one-workload form the driver uses.
    trace: Option<bool>,
    traced: bool,
    smoke: bool,
    aa: bool,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: None,
        traced: false,
        smoke: false,
        aa: false,
        runs: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !SPECS.iter().any(|s| s.name == w) {
                    let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
                    return Err(format!("unknown workload '{w}' (one of {names:?})"));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                a.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "--runs" => {
                a.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if a.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--traced" => a.traced = true,
            "--smoke" => a.smoke = true,
            "--aa" => a.aa = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

/// Where trace files, results and socket files go: `$SMI_BENCH_OUT` (set by
/// `run.sh` to `out/` beside it), else `out/` in the package directory.
fn out_dir() -> PathBuf {
    std::env::var_os("SMI_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A number as measured, with all its digits; JSON has no NaN or infinity.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for names made of letters,
/// digits, `_`, `.` and `-` (nothing that needs escaping).
fn metrics_json(defs: &[Def], values: &[(&str, f64)]) -> String {
    let items: Vec<String> = defs
        .iter()
        .zip(values)
        .map(|(d, (name, v))| {
            assert_eq!(d.name, *name, "metrics follow the registry's order");
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                num(*v),
                d.unit
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The result line the driver reads: exactly these four keys.
fn result_line(m: &Measured, defs: &[Def]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.correct(),
        m.attempted,
        m.failed(),
        metrics_json(defs, &m.values)
    )
}

#[derive(Deserialize)]
struct MetricValue {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

/// Measure one workload in this process and print every metric by name with
/// its unit, then the result line. Returns whether every operation was
/// correct.
fn run_one(spec: &Spec, opts: Opts) -> bool {
    println!(
        "workload {} (seed {}, {} s, trace {}): {}",
        spec.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        spec.why
    );
    println!("nproc {}; {LOOPBACK_NOTE}", nproc());
    let m = measure(spec, opts);
    let defs: &[Def] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    for (d, (name, v)) in defs.iter().zip(&m.values) {
        println!("  {name:<36} {v:>16.6} {}", d.unit);
    }
    for note in &m.notes {
        println!("  note: {note}");
    }
    if let Some(json) = &m.trace_json {
        let path = out_dir().join(format!("trace_{}.json", spec.name));
        match std::fs::write(&path, json) {
            Ok(()) => println!("  trace written to {}", path.display()),
            Err(e) => println!("  note: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", result_line(&m, defs));
    m.correct()
}

/// Run one workload in a fresh child process (so its peak RSS and its cold
/// launch are its own) and parse the result line.
fn run_child(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let parsed: Result<ResultLine, _> = serde_json::from_str(last);
    match parsed {
        Ok(r) => Ok(r),
        Err(e) => Err(format!(
            "{}: no result line ({e}); exit {:?}\n{stdout}{}",
            spec.name,
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// One pass over the selected workloads, each in its own child process.
/// Returns per workload its end-to-end and (with `traced`) per-layer result.
type SuiteRow = (&'static str, ResultLine, Option<ResultLine>);

fn run_suite(
    specs: &[&'static Spec],
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Vec<SuiteRow>, String> {
    specs
        .iter()
        .map(|spec| {
            eprintln!("running {} ...", spec.name);
            let e2e = run_child(spec, seed, seconds, false)?;
            let layers = traced
                .then(|| run_child(spec, seed, seconds, true))
                .transpose()?;
            Ok((spec.name, e2e, layers))
        })
        .collect()
}

fn print_metrics(defs: &[Def], r: &ResultLine) {
    for d in defs {
        match r.metrics.get(d.name) {
            Some(m) => println!("  {:<36} {:>16.6} {}", d.name, m.value, m.unit),
            None => println!("  {:<36} missing", d.name),
        }
    }
}

fn result_json(r: &ResultLine, defs: &[Def]) -> String {
    let values: Vec<(&str, f64)> = defs
        .iter()
        .map(|d| (d.name, r.metrics.get(d.name).map_or(0.0, |m| m.value)))
        .collect();
    metrics_json(defs, &values)
}

/// Suite mode: print every metric of every workload and write
/// `out/results.json`.
fn suite(a: &Args, specs: &[&'static Spec]) -> Result<bool, String> {
    let rows = run_suite(specs, a.seed, a.seconds, a.traced)?;
    let mut all_correct = true;
    let mut entries = Vec::new();
    for (name, e2e, layers) in &rows {
        println!(
            "{name}: correct {}, attempted {}, failed {}",
            e2e.correct, e2e.attempted, e2e.failed
        );
        print_metrics(&END_TO_END, e2e);
        all_correct &= e2e.correct;
        let mut entry = format!(
            "\"{name}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}",
            e2e.correct,
            e2e.attempted,
            e2e.failed,
            result_json(e2e, &END_TO_END)
        );
        if let Some(l) = layers {
            print_metrics(&PER_LAYER, l);
            all_correct &= l.correct;
            entry.push_str(&format!(", \"per_layer\": {}", result_json(l, &PER_LAYER)));
        }
        entry.push('}');
        entries.push(entry);
    }
    let json = format!(
        "{{\"benchmark\": \"smi_benchmark\", \"claim\": null, \"seed\": {}, \"seconds\": {}, \"nproc\": {}, \"network\": \"{LOOPBACK_NOTE}\", \"workloads\": {{\n{}\n}}}}\n",
        a.seed,
        num(a.seconds),
        nproc(),
        entries.join(",\n")
    );
    let path = out_dir().join("results.json");
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

/// A/A mode: run the suite twice (`runs` runs per side, run `i` of both
/// sides on seed `seed + i`) and check, per workload × end-to-end metric,
/// that neither side's median is worse than the other's by more than the
/// metric's bound and — with enough runs to have quartiles — that each
/// side's quartile spread stays within it (`setup_s` exempt, as in the
/// driver's acceptance rule).
fn aa(a: &Args, specs: &[&'static Spec]) -> Result<bool, String> {
    let mut sides: [BTreeMap<(&str, &str), Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
    let mut all_correct = true;
    for (side, values) in sides.iter_mut().enumerate() {
        for run in 0..a.runs {
            eprintln!("side {} run {}/{}", ["A", "B"][side], run + 1, a.runs);
            for (name, e2e, _) in run_suite(specs, a.seed + run as u64, a.seconds, false)? {
                all_correct &= e2e.correct;
                for d in &END_TO_END {
                    let v = e2e.metrics.get(d.name).map_or(0.0, |m| m.value);
                    values.entry((name, d.name)).or_default().push(v);
                }
            }
        }
    }
    println!(
        "{:<16} {:<20} {:<7} {:>12} {:>12} {:>7} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "better",
        "median A",
        "median B",
        "B/A",
        "spread A",
        "spread B",
        "bound"
    );
    let mut pass = all_correct;
    for spec in specs {
        for d in &END_TO_END {
            let (va, vb) = (
                &sides[0][&(spec.name, d.name)],
                &sides[1][&(spec.name, d.name)],
            );
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let (sa, sb) = (stats::quartile_spread(va), stats::quartile_spread(vb));
            let (lo, hi) = if ma < mb { (ma, mb) } else { (mb, ma) };
            let apart = if lo > 0.0 {
                hi / lo - 1.0
            } else {
                f64::INFINITY
            };
            let steady = d.name == "setup_s" || a.runs < 2 || (sa <= d.bound && sb <= d.bound);
            let ok = apart <= d.bound && steady;
            pass &= ok;
            println!(
                "{:<16} {:<20} {:<7} {:>12.4} {:>12.4} {:>7.3} {:>8.3} {:>8.3} {:>6.2}  {}",
                spec.name,
                d.name,
                d.better,
                ma,
                mb,
                if ma > 0.0 { mb / ma } else { 0.0 },
                sa,
                sb,
                d.bound,
                if ok { "PASS" } else { "FAIL" }
            );
        }
    }
    if !all_correct {
        println!("FAIL: a run reported failed operations");
    }
    Ok(pass)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("smi_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if nproc() < 2 && !a.smoke {
        eprintln!(
            "smi_benchmark: refusing to run on {} core(s): the workloads pin 2 OS threads, \
             and numbers taken on fewer cores measure the scheduler",
            nproc()
        );
        return ExitCode::from(2);
    }
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("smi_benchmark: cannot create {}: {e}", out.display());
        return ExitCode::from(2);
    }
    // The split launcher binds its Unix-domain sockets under the temporary
    // directory; keep them inside the benchmark's own output directory.
    // Set before any thread exists.
    std::env::set_var("TMPDIR", &out);

    let specs: Vec<&'static Spec> = SPECS
        .iter()
        .filter(|s| a.workload.as_deref().is_none_or(|w| w == s.name))
        .collect();
    let opts = |trace| Opts {
        seed: a.seed,
        seconds: a.seconds,
        trace,
        smoke: a.smoke,
    };
    let ok = if a.smoke {
        specs.iter().all(|s| run_one(s, opts(a.traced)))
    } else if let (Some(trace), [spec]) = (a.trace, specs.as_slice()) {
        run_one(spec, opts(trace))
    } else {
        let r = if a.aa {
            aa(&a, &specs)
        } else {
            suite(&a, &specs)
        };
        match r {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("smi_benchmark: {e}");
                false
            }
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_plain_names() {
        let defs = [
            Def {
                name: "a.b-c_9",
                unit: "Melem/s",
                better: "higher",
                bound: 0.1,
            },
            Def {
                name: "Z",
                unit: "us",
                better: "lower",
                bound: 0.1,
            },
        ];
        let m = Measured {
            attempted: 12,
            ok: 12,
            unroutable: 0,
            values: vec![("a.b-c_9", 1.203_456_789_012_3), ("Z", f64::NAN)],
            trace_json: None,
            notes: vec![],
        };
        let parsed: ResultLine = serde_json::from_str(&result_line(&m, &defs)).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (12, 0));
        assert_eq!(parsed.metrics.len(), 2);
        assert_eq!(parsed.metrics["a.b-c_9"].value, 1.203_456_789_012_3);
        assert_eq!(parsed.metrics["a.b-c_9"].unit, "Melem/s");
        assert_eq!(parsed.metrics["Z"].value, 0.0, "non-finite values become 0");
    }

    #[derive(Deserialize)]
    struct WorkloadDecl {
        name: String,
        why: String,
    }

    #[derive(Deserialize)]
    struct MetricDecl {
        name: String,
        unit: String,
        better: String,
        #[serde(default)]
        bound: Option<f64>,
    }

    #[derive(Deserialize)]
    struct Declared {
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<WorkloadDecl>,
        end_to_end: Vec<MetricDecl>,
        per_layer: Vec<MetricDecl>,
    }

    /// `BENCHMARK.json` at the repository root repeats this package's
    /// registry; the two must not drift apart.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let decl: Declared = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(decl.paths, ["smi_benchmark"]);
        assert_eq!(decl.run_seconds as f64, RUN_SECONDS);
        // The driver's time cap pays for six of the eight workloads at this
        // run length (README, "What the driver runs"); the declared ones are
        // ours, in our order.
        let declared: Vec<(&str, &str)> = decl
            .workloads
            .iter()
            .map(|w| (w.name.as_str(), w.why.as_str()))
            .collect();
        let ours: Vec<(&str, &str)> = SPECS
            .iter()
            .map(|s| (s.name, s.why))
            .filter(|s| declared.contains(s))
            .collect();
        assert_eq!(declared, ours);
        assert_eq!(declared.len(), 6);
        let check = |declared: &[MetricDecl], ours: &[Def], bounded: bool| {
            assert_eq!(declared.len(), ours.len());
            for (d, o) in declared.iter().zip(ours) {
                assert_eq!((d.name.as_str(), d.unit.as_str()), (o.name, o.unit));
                assert_eq!(d.better, o.better, "{}", o.name);
                assert_eq!(d.bound, bounded.then_some(o.bound), "{}", o.name);
            }
        };
        check(&decl.end_to_end, &END_TO_END, true);
        check(&decl.per_layer, &PER_LAYER, false);
    }
}
