//! Criterion microbenchmarks of the wire layer: header codec and message
//! framing throughput (the per-element cost inside SMI_Push/SMI_Pop).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use smi_wire::{Datatype, Deframer, Framer, Header, NetworkPacket, PacketOp, PacketRun};

fn bench_header(c: &mut Criterion) {
    let mut g = c.benchmark_group("header");
    g.throughput(Throughput::Elements(1));
    let h = Header::new(3, 250, 17, PacketOp::Send, 7).unwrap();
    g.bench_function("pack", |b| b.iter(|| black_box(h).pack()));
    let bytes = h.pack();
    g.bench_function("unpack", |b| {
        b.iter(|| Header::unpack(black_box(&bytes)).unwrap())
    });
    g.finish();
}

fn bench_packet(c: &mut Criterion) {
    let mut g = c.benchmark_group("packet");
    let mut p = NetworkPacket::new(0, 1, 0, PacketOp::Send);
    for i in 0..7 {
        p.write_elem(i, &(i as f32));
    }
    p.header.count = 7;
    g.throughput(Throughput::Bytes(32));
    g.bench_function("pack32B", |b| b.iter(|| black_box(&p).pack()));
    let bytes = p.pack();
    g.bench_function("unpack32B", |b| {
        b.iter(|| NetworkPacket::unpack(black_box(&bytes)).unwrap())
    });
    g.finish();
}

fn bench_framing(c: &mut Criterion) {
    let mut g = c.benchmark_group("framing");
    const N: usize = 7 * 1024;
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("frame_f32_stream", |b| {
        b.iter(|| {
            let mut fr = Framer::new(Datatype::Float, 0, 1, 0, PacketOp::Send);
            let mut packets = 0u32;
            for i in 0..N {
                if fr.push(&(i as f32)).is_some() {
                    packets += 1;
                }
            }
            black_box(packets)
        })
    });
    // Pre-frame for the deframe benchmark.
    let mut fr = Framer::new(Datatype::Float, 0, 1, 0, PacketOp::Send);
    let mut pkts = Vec::new();
    for i in 0..N {
        if let Some(p) = fr.push(&(i as f32)) {
            pkts.push(p);
        }
    }
    g.bench_function("deframe_f32_stream", |b| {
        b.iter(|| {
            let mut df = Deframer::new(Datatype::Float);
            let mut sum = 0.0f32;
            for p in &pkts {
                df.refill(*p);
                while let Some(v) = df.pop::<f32>() {
                    sum += v;
                }
            }
            black_box(sum)
        })
    });
    // The path receivers ship: the same stream drained by span pops, once
    // from the packets and once from one run of the whole message.
    let elems: Vec<f32> = (0..N).map(|i| i as f32).collect();
    let run = PacketRun::from_elems(0, 1, 0, PacketOp::Send, &elems).payload;
    let mut out = vec![0.0f32; N];
    g.throughput(Throughput::Elements(2 * N as u64));
    g.bench_function("deframe_f32_stream_slice", |b| {
        b.iter(|| {
            let mut df = Deframer::new(Datatype::Float);
            let mut filled = 0;
            for p in &pkts {
                df.refill(*p);
                filled += df.pop_slice(&mut out[filled..]);
            }
            df.refill_run(run.clone());
            filled += df.pop_slice(&mut out[..]);
            black_box((filled, out[N - 1]))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_header, bench_packet, bench_framing);
criterion_main!(benches);
