//! Pins what the socket plane does when nothing asks it to: the data
//! listener a group keeps open for mid-stream recovery is only ever
//! `accept`ed on by a connection that is already reconnecting, so a
//! fault-free run never calls `accept` after bootstrap, and a severed one
//! does. A fault-free run also ends every stream with a fin exchange, so no
//! pump counts a fault, and a severed one counts at least one per healed
//! reconnect. Counts do not depend on the host's speed, so they gate where a
//! clock cannot.

use smi::prelude::*;

const N: u64 = 200_000;

fn data() -> Vec<i32> {
    (0..N as i32).map(|i| i * 3 - 11).collect()
}

/// Rank 0 streams `N` ints to rank 1 across a two-group UDS split.
fn p2p_over_uds(faults: Option<FaultPlan>) -> RunReport<Result<Vec<i32>, SmiError>> {
    let mut plan = ProcessPlan::split(&Topology::bus(2), TransportBackend::Uds, 2);
    plan.faults = faults;
    run_split_spmd(
        &plan,
        ProgramMeta::new()
            .with(OpSpec::send(0, Datatype::Int))
            .with(OpSpec::recv(0, Datatype::Int)),
        |ctx: SmiCtx| -> Result<Vec<i32>, SmiError> {
            if ctx.rank() == 0 {
                let mut tx = ctx.open_send_channel::<i32>(N, 1, 0)?;
                tx.push_slice(&data())?;
                Ok(Vec::new())
            } else {
                let mut rx = ctx.open_recv_channel::<i32>(N, 0, 0)?;
                let mut buf = vec![0i32; N as usize];
                rx.pop_slice(&mut buf)?;
                Ok(buf)
            }
        },
        RuntimeParams::default(),
    )
    .expect("split run launches")
}

fn assert_delivered(report: &RunReport<Result<Vec<i32>, SmiError>>) {
    let got = report.results[1].as_ref().expect("receiver finished");
    assert!(*got == data(), "receiver popped wrong data");
    assert!(report.results[0].is_ok(), "sender: {:?}", report.results[0]);
}

#[test]
fn a_fault_free_run_never_accepts() {
    let report = p2p_over_uds(None);
    assert_delivered(&report);
    let wire = report.wire_stats;
    println!(
        "fault-free: accepts {} stream faults {} send syscalls {} recv syscalls {}",
        wire.accepts, wire.stream_faults, wire.send_syscalls, wire.recv_syscalls
    );
    assert!(wire.send_syscalls > 0, "bytes must cross the socket");
    assert_eq!(report.reconnects_healed, 0, "fault-free run healed");
    assert_eq!(wire.stream_faults, 0, "fault-free run faulted");
    assert_eq!(wire.accepts, 0, "nothing accepts without a fault");
}

#[test]
fn a_severed_run_accepts_its_redial() {
    let faults = FaultPlan {
        links: vec![LinkFault {
            sever: vec![SeverSpec { after_frame: 2 }],
            ..LinkFault::clean(0, 1)
        }],
    };
    let report = p2p_over_uds(Some(faults));
    assert_delivered(&report);
    let wire = report.wire_stats;
    println!(
        "severed: accepts {} healed {} stream faults {}",
        wire.accepts, report.reconnects_healed, wire.stream_faults
    );
    assert!(report.reconnects_healed >= 1, "the sever must heal");
    assert!(wire.accepts >= 1, "the re-dial must be accepted");
    assert!(
        wire.stream_faults >= report.reconnects_healed as u64,
        "every heal follows a counted fault"
    );
}
