//! The route generator of the SMI workflow (§4.5, Fig. 8):
//!
//! > "A route generator accepts the network topology of the FPGA cluster and
//! > produces the necessary routing tables that drive the forwarding logic
//! > at runtime. […] it can be executed independently from the compilation
//! > (crucially, you can change the routes without recompiling the
//! > bitstream)."
//!
//! Usage:
//!
//! ```text
//! smi-routegen <topology.json> [--scheme updown|shortest] [--out routes.json] [--check]
//! ```
//!
//! Reads a topology description (JSON, or the `A:0 - B:0` text format when
//! the file does not start with `{`), computes the routing plan, optionally
//! verifies deadlock-freedom, and writes the serialized plan.
//!
//! The artifact carries what the devices consume — `num_ranks`, `scheme`,
//! the per-rank next-hop tables (`per_rank`) and the hop-count matrix
//! (`hops`) — and no `paths`: `--check` rebuilds them from the topology.
//! Loaders must call `RoutingPlan::validate_against` with the topology
//! before using the tables; a truncated or hand-edited artifact is rejected
//! there with a typed error.

use std::process::ExitCode;

use smi_topology::deadlock::find_cycle;
use smi_topology::routing::Scheme;
use smi_topology::{PathStats, RoutingPlan, Topology};

fn usage() -> ExitCode {
    eprintln!(
        "usage: smi-routegen <topology.json> [--scheme updown|shortest] [--out routes.json] [--check]\n\
         routes.json holds num_ranks, scheme, per_rank next-hop tables and the hops matrix (no paths)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut topo_path = None;
    let mut out_path = None;
    let mut scheme = Scheme::UpDown;
    let mut check = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scheme" => match it.next().map(String::as_str) {
                Some("updown") => scheme = Scheme::UpDown,
                Some("shortest") => scheme = Scheme::ShortestPath,
                _ => return usage(),
            },
            "--out" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => return usage(),
            },
            "--check" => check = true,
            "--help" | "-h" => return usage(),
            p if topo_path.is_none() => topo_path = Some(p.to_string()),
            _ => return usage(),
        }
    }
    let Some(topo_path) = topo_path else {
        return usage();
    };
    let text = match std::fs::read_to_string(&topo_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("smi-routegen: cannot read {topo_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let topo = if text.trim_start().starts_with('{') {
        Topology::from_json(&text)
    } else {
        Topology::from_text(&text)
    };
    let topo = match topo {
        Ok(t) => t,
        Err(e) => {
            eprintln!("smi-routegen: bad topology: {e}");
            return ExitCode::FAILURE;
        }
    };
    let plan = match RoutingPlan::compute_with(&topo, scheme) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("smi-routegen: routing failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stats = PathStats::analyze(&topo, &plan);
    println!(
        "{} ranks, {} cables; diameter {} (routed {}), mean stretch {:.3}",
        topo.num_ranks(),
        topo.connections().len(),
        stats.diameter,
        stats.routed_diameter,
        stats.mean_stretch
    );
    if check {
        match find_cycle(&topo, &plan) {
            None => println!("deadlock check: channel dependency graph is acyclic"),
            Some(cycle) => {
                eprintln!(
                    "deadlock check FAILED: CDG cycle through {} channels: {:?}",
                    cycle.len(),
                    cycle
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let json = serde_json::to_string_pretty(&plan).expect("plan serializes");
    match out_path {
        Some(p) => {
            if let Err(e) = std::fs::write(&p, json) {
                eprintln!("smi-routegen: cannot write {p}: {e}");
                return ExitCode::FAILURE;
            }
            println!("routing tables written to {p}");
        }
        None => println!("{json}"),
    }
    ExitCode::SUCCESS
}
