//! Micro-benchmarks of the core library components.
//!
//! These measure the *simulator's own* performance (events/sec, fault-path
//! cost, compiler pass time) — the foundation that makes regenerating the
//! paper's figures take seconds instead of hours. Self-timed via
//! [`bench::micro`]; run with `cargo bench -p bench --bench components`.

use std::hint::black_box;

use bench::micro::bench;
use sim_core::rng::Pcg32;
use sim_core::{EventQueue, SimTime};
use vm::{Backing, CostParams, Tunables, VmSys};

fn bench_event_queue() {
    bench("event-queue schedule+pop 10k", || {
        let mut q = EventQueue::new();
        let mut rng = Pcg32::seeded(1);
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_nanos(u64::from(rng.next_u32()) + i), i);
        }
        let mut sum = 0u64;
        while let Some(ev) = q.pop() {
            sum = sum.wrapping_add(ev.payload);
        }
        black_box(sum);
    });
}

fn bench_rng() {
    let mut rng = Pcg32::seeded(7);
    bench("pcg32 next_below", || {
        black_box(rng.next_below(4800));
    });
}

fn bench_touch_paths() {
    // Warm hit path: repeated touches of resident, valid pages.
    {
        let mut vm = VmSys::new(
            256,
            Tunables::for_memory(256),
            CostParams::default(),
            disk::SwapConfig::test_array(),
        );
        let pid = vm.add_process(false);
        let r = vm.map_region(pid, 32, Backing::ZeroFill, false);
        let mut now = SimTime::from_nanos(1);
        for i in 0..32 {
            now = vm.touch(now, pid, r.start.offset(i), false).done_at;
        }
        let mut i = 0u64;
        bench("vm-touch hit", || {
            let res = vm.touch(now, pid, r.start.offset(i % 32), false);
            i += 1;
            black_box(res.kind);
        });
    }

    // TLB-miss path: a cyclic sweep over twice the 64-entry TLB's reach
    // of resident, valid pages misses on every touch under FIFO.
    {
        let mut vm = VmSys::new(
            256,
            Tunables::for_memory(256),
            CostParams::default(),
            disk::SwapConfig::test_array(),
        );
        let pid = vm.add_process(false);
        let r = vm.map_region(pid, 128, Backing::ZeroFill, false);
        let mut now = SimTime::from_nanos(1);
        for i in 0..128 {
            now = vm.touch(now, pid, r.start.offset(i), false).done_at;
        }
        let mut i = 0u64;
        bench("vm-touch tlb-miss", || {
            let res = vm.touch(now, pid, r.start.offset(i % 128), false);
            i += 1;
            black_box(res.kind);
        });
    }

    // Hard-fault path including daemon-forced reclaim (steady-state churn).
    {
        let mut vm = VmSys::new(
            256,
            Tunables::for_memory(256),
            CostParams::default(),
            disk::SwapConfig::test_array(),
        );
        let pid = vm.add_process(false);
        let r = vm.map_region(pid, 100_000, Backing::SwapPrefilled, false);
        let mut now = SimTime::from_nanos(1);
        let mut i = 0u64;
        bench("vm-touch hard-fault-churn", || {
            let res = vm.touch(now, pid, r.start.offset(i % 100_000), false);
            now = res.done_at;
            i += 1;
            if vm.pagingd_needed() {
                vm.service_pagingd(now);
            }
            black_box(res.kind);
        });
    }
}

fn bench_freelist() {
    use vm::frame::FrameTable;
    use vm::freelist::FreeList;
    use vm::pagetable::PageTable;
    use vm::{Pid, Vpn};
    const PAGES: u64 = 4096;
    let mut frames = FrameTable::new(4800);
    let mut free = FreeList::new();
    free.fill_initial(&frames);
    // One process whose page-table entries hold the rescue links.
    let mut pts = [PageTable::new()];
    pts[0].entry(Vpn(PAGES - 1));
    let mut i = 0u64;
    bench("freelist alloc/free/rescue cycle", || {
        let vpn = Vpn(i % PAGES);
        let pfn = free.alloc(&mut frames, &mut pts[..]).expect("frame");
        frames.get_mut(pfn).owner = Some((Pid(0), vpn));
        free.push_freed(&mut frames, &mut pts[..], pfn, true);
        if i.is_multiple_of(3) {
            black_box(free.rescue(&mut frames, &mut pts[..], Pid(0), vpn));
            frames.get_mut(pfn).owner = None;
            free.push_freed(&mut frames, &mut pts[..], pfn, false);
        }
        i += 1;
    });
}

fn bench_runtime_filters() {
    use runtime::filter::TagFilter;
    use runtime::policy::ReleaseBuffers;
    use vm::Vpn;
    {
        let mut f = TagFilter::new();
        let mut i = 0u64;
        bench("tag-filter observe", || {
            black_box(f.observe((i % 8) as u32, Vpn(i / 2)));
            i += 1;
        });
    }
    {
        let mut buf = ReleaseBuffers::new();
        let mut i = 0u64;
        bench("release-buffers buffer+drain", || {
            // A tag's priority is fixed (compiler-assigned); derive it
            // from the tag.
            let tag = (i % 4) as u32;
            buf.buffer(tag, 1 + tag % 3, Vpn(i));
            if buf.buffered() >= 100 {
                black_box(buf.drain_lowest(100));
            }
            i += 1;
        });
    }
}

fn bench_compiler_pass() {
    use compiler::{compile, CompileOptions, MachineModel};
    let specs = workloads::all_benchmarks();
    let opts = CompileOptions::prefetch_and_release(MachineModel::origin200());
    bench("compile all six benchmarks", || {
        for s in &specs {
            black_box(compile(&s.source, &opts));
        }
    });
}

/// Drains the first 20k ops of `name`'s prefetch+release build: one
/// iteration of each bench below is one 20k-op drain.
fn bench_executor_ops(label: &str, name: &str) {
    use runtime::{Executor, OpStream};
    let spec = workloads::benchmark(name).unwrap();
    let opts = compiler::CompileOptions::prefetch_and_release(compiler::MachineModel::origin200());
    let prog = compiler::compile(&spec.source, &opts);
    let bases: Vec<vm::Vpn> = (0..spec.arrays.len() as u64)
        .map(|i| vm::Vpn(0x1000 + i * 0x100_0000))
        .collect();
    let bind = spec.bindings(&bases, 16 * 1024);
    bench(label, || {
        let mut ex = Executor::new(prog.clone(), bind.clone());
        let mut n = 0u64;
        for _ in 0..20_000 {
            if ex.next_op() == runtime::Op::End {
                break;
            }
            n += 1;
        }
        black_box(n);
    });
}

fn bench_executor() {
    bench_executor_ops("executor matvec 20k ops", "MATVEC");
    // BUK's first nest is the rank scatter `rank[key[i]]`: every
    // iteration gathers from a random page.
    bench_executor_ops("executor gather 20k ops (BUK rank-scatter)", "BUK");
    // MGRID's first nest is `resid`, a seven-point 3-D stencil.
    bench_executor_ops("executor stencil 20k ops (MGRID resid)", "MGRID");
}

fn main() {
    bench_event_queue();
    bench_rng();
    bench_touch_paths();
    bench_freelist();
    bench_runtime_filters();
    bench_compiler_pass();
    bench_executor();
}
