//! Executor op-stream pins: an FNV-1a digest over every [`Op`] the
//! executor emits — touches, compute, marks *and* hints — for each paper
//! benchmark × O/P/R/B (with and without `reseed(7)`), and for the 32
//! fuzz-corpus seeds.
//!
//! `prop_exec_diff` checks touches and compute against a naive
//! interpreter; these pins cover what it cannot: where the real kernels'
//! prologue, steady-state, descending and indirect `a[b[i+D]]` prefetches,
//! release hints and `RetireTag`s land. Arrays are mapped exactly as the
//! engine maps them, so the streams are the ones a run executes.
//!
//! The same streams, drained through the producer thread the engine
//! runs an executor on when it has a core to spare, must equal the
//! inline ones.
//!
//! A moved pin is a change in what the compiled programs ask of the OS.
//! If that is intended, print the new table with
//! `cargo test --release --test op_stream_pins -- --nocapture` and update
//! the pins together with the explanation.

use hogtame::prelude::*;
use runtime::{Executor, Mark, Op, OpStream, Pipelined};
use sim_core::fingerprint::Fnv1a;
use vm::{Backing, VmSys};
use workloads::BenchSpec;

/// Backstop against a runaway executor.
const OP_GUARD: u64 = 100_000_000;

/// The executor of `spec` compiled as `version`, its arrays mapped as
/// the engine maps a benchmark process.
fn executor(spec: &BenchSpec, version: Version, machine: &MachineConfig) -> Executor {
    let prog = compiler::compile(&spec.source, &version.compile_options(machine));
    let mut vm = VmSys::with_defaults(1);
    let pid = vm.add_process(true);
    let bases: Vec<_> = spec
        .arrays
        .iter()
        .map(|a| {
            vm.map_region(
                pid,
                a.pages(machine.page_size),
                Backing::SwapPrefilled,
                true,
            )
            .start
        })
        .collect();
    Executor::new(prog, spec.bindings(&bases, machine.page_size))
}

/// Feeds every op of `stream` up to its `End` into a digest; returns it
/// with the op count.
fn stream_digest(stream: &mut dyn OpStream, name: &str) -> (Fnv1a, u64) {
    let mut h = Fnv1a::new();
    let mut ops = 0u64;
    loop {
        ops += 1;
        assert!(ops < OP_GUARD, "executor runaway in {name}");
        match stream.next_op() {
            Op::Compute(d) => {
                h.write_u64(1);
                h.write_u64(d.as_nanos());
            }
            Op::Touch { vpn, write } => {
                h.write_u64(2);
                h.write_u64(vpn.0);
                h.write_bool(write);
            }
            Op::PrefetchHint { vpn, npages, tag } => {
                h.write_u64(3);
                h.write_u64(vpn.0);
                h.write_u64(npages);
                h.write_u64(u64::from(tag));
            }
            Op::ReleaseHint { vpn, priority, tag } => {
                h.write_u64(4);
                h.write_u64(vpn.0);
                h.write_u64(u64::from(priority));
                h.write_u64(u64::from(tag));
            }
            Op::RetireTag { tag } => {
                h.write_u64(5);
                h.write_u64(u64::from(tag));
            }
            Op::Sleep(d) => {
                h.write_u64(6);
                h.write_u64(d.as_nanos());
            }
            Op::Mark(m) => {
                h.write_u64(7);
                h.write_bool(m == Mark::SweepEnd);
            }
            Op::End => break,
        }
    }
    (h, ops)
}

/// Digest of the full op stream of `spec` compiled as `version` and mapped
/// as the engine maps a benchmark process.
fn op_digest(spec: &BenchSpec, version: Version, machine: &MachineConfig) -> u64 {
    let mut ex = executor(spec, version, machine);
    let (mut h, ops) = stream_digest(&mut ex, &spec.name);
    h.write_u64(ops);
    h.write_u64(ex.iterations());
    h.finish()
}

/// `(benchmark, reseed, [O, P, R, B])` on the paper's machine.
#[rustfmt::skip]
const BENCH_PINS: &[(&str, Option<u64>, [u64; 4])] = &[
    ("EMBAR", None, [0xc036fe6f5f3557cc, 0x43f1ff622636ab99, 0xb146f16914cb1c9d, 0xb146f16914cb1c9d]),
    ("EMBAR", Some(7), [0xc036fe6f5f3557cc, 0x43f1ff622636ab99, 0xb146f16914cb1c9d, 0xb146f16914cb1c9d]),
    ("MATVEC", None, [0x06bee09ca5bd91e3, 0xc70ba3256de020e9, 0xdd3eb93f51443207, 0xdd3eb93f51443207]),
    ("MATVEC", Some(7), [0x06bee09ca5bd91e3, 0xc70ba3256de020e9, 0xdd3eb93f51443207, 0xdd3eb93f51443207]),
    ("BUK", None, [0xd0c6bbf56bc54202, 0x0e800645f425c03d, 0x1399488987a45b45, 0x1399488987a45b45]),
    ("BUK", Some(7), [0xd60d61e8f3e873ea, 0x0b39742996281c64, 0x56933bde373940cd, 0x56933bde373940cd]),
    ("CGM", None, [0x3c8be339c2d9a45f, 0x6c1615de125cd14c, 0x54204235d4f463c9, 0x54204235d4f463c9]),
    ("CGM", Some(7), [0x6d9aed82269965ff, 0xec47dfe04fd539ea, 0xf81db8651ee4042f, 0xf81db8651ee4042f]),
    ("MGRID", None, [0x9cb0335a4c9b7c72, 0xbbea218224cc3512, 0x4db1d42383856b55, 0x4db1d42383856b55]),
    ("MGRID", Some(7), [0x9cb0335a4c9b7c72, 0xbbea218224cc3512, 0x4db1d42383856b55, 0x4db1d42383856b55]),
    ("FFTPDE", None, [0xb23f861be8c84187, 0xd652520abb2cba11, 0x4004086d08afa398, 0x4004086d08afa398]),
    ("FFTPDE", Some(7), [0xb23f861be8c84187, 0xd652520abb2cba11, 0x4004086d08afa398, 0x4004086d08afa398]),
];

/// `[O, P, R, B]` per fuzz-corpus seed, on the small machine.
#[rustfmt::skip]
const FUZZ_PINS: &[[u64; 4]] = &[
    [0xc9a2aa81b3eacef1, 0x4157355f0f48dd97, 0x934d2f1791cb11ef, 0x934d2f1791cb11ef],
    [0xc63d61b2f22acc63, 0x5d716e41d8e6a892, 0x21b3b5a4765c3108, 0x21b3b5a4765c3108],
    [0xfa6ee28e7b0e4204, 0x107bdfc6da51bc75, 0x107bdfc6da51bc75, 0x107bdfc6da51bc75],
    [0x0a8bc39572dcc4f3, 0x525b9cccd82c09e8, 0x61c512f49a4b57a0, 0x61c512f49a4b57a0],
    [0x65ad7c0e9fc8c3ed, 0xcb8f67420d3d587e, 0x5b10dd7a58bfff64, 0x5b10dd7a58bfff64],
    [0x28f7886aba73b785, 0xcaf84674eb3c524d, 0xe18ad227645b2432, 0xe18ad227645b2432],
    [0x39b5ca0a1c9c4657, 0xaf651db7ce48c319, 0xdf36ec9f35ad06a9, 0xdf36ec9f35ad06a9],
    [0x88105318218ca4c7, 0x25d0a9bef55ce3ed, 0x25d0a9bef55ce3ed, 0x25d0a9bef55ce3ed],
    [0x3bdb8bafb9d33985, 0xf6f7161a775b3ea0, 0xbb2c5b2b171d97d0, 0xbb2c5b2b171d97d0],
    [0xd0b64c169ea7c3b4, 0x4ff828146f807ba7, 0x9b54cb3c07f17b64, 0x9b54cb3c07f17b64],
    [0xe1445b4726477dfa, 0xb7a46c3ead74d1c3, 0xf8f0770c00ab196c, 0xf8f0770c00ab196c],
    [0x1e7066cf8bf5492c, 0xa23ad19efa01bc8c, 0x69586c7db1864789, 0x69586c7db1864789],
    [0xbd66201178229d6a, 0x877edce5e9fcce8e, 0x877edce5e9fcce8e, 0x877edce5e9fcce8e],
    [0xf3ac1d8f53210fea, 0xbf53ab5b9bbf5bf4, 0xe54497d21eb2c3cd, 0xe54497d21eb2c3cd],
    [0x37bfa9566b2dc10b, 0x01af677eb276c703, 0x01af677eb276c703, 0x01af677eb276c703],
    [0x79a93a793d621c9f, 0x906ce426a816f11c, 0x04e7456ce4832cad, 0x04e7456ce4832cad],
    [0x57c409473836be7d, 0x2244e409abc7d83a, 0x38ad3341d797cf92, 0x38ad3341d797cf92],
    [0x7c343385cb28b998, 0xdc9c849a97eb6b44, 0xbe2091cd23cff77f, 0xbe2091cd23cff77f],
    [0x5bc3953e6a0a9c73, 0x6caf40ec64c85c47, 0xc88d55a0ba2d80c6, 0xc88d55a0ba2d80c6],
    [0x0bc835794902ffb3, 0x0bc835794902ffb3, 0x0bc835794902ffb3, 0x0bc835794902ffb3],
    [0x2aef6e18f372e93a, 0x51e8393f3465193e, 0x93f4e2f97fe0d632, 0x93f4e2f97fe0d632],
    [0x41a0d8a4e6cb7716, 0x1866efdb2ba42a45, 0x553c943acb0b13bd, 0x553c943acb0b13bd],
    [0xf66eed6831ed3c06, 0x5447c8aa334e33eb, 0x54cd6a0ccdd4266e, 0x54cd6a0ccdd4266e],
    [0x1d66c637be755a83, 0x45a726978ec12054, 0xa02c8044da05e1d7, 0xa02c8044da05e1d7],
    [0xe64ae3dff3491969, 0x77a639878bb95b0b, 0xb40a0488defb57f3, 0xb40a0488defb57f3],
    [0xd296917b98222e39, 0xe31701947fa23c3f, 0x97d7c6a2b4b97df3, 0x97d7c6a2b4b97df3],
    [0xb0cddc88485aca51, 0xfa5d04deb8eb8302, 0x57fde107a903e19a, 0x57fde107a903e19a],
    [0x41c214c8f04fb2df, 0x0fa7df6ebc141053, 0xb226dfa8096c5c70, 0xb226dfa8096c5c70],
    [0x61ba2565bfd33776, 0x75cfb0c1d0f526a5, 0x769fc57081f296cd, 0x769fc57081f296cd],
    [0xc731b81c0a0b6730, 0xc2b2e84c53f5d185, 0xc2b2e84c53f5d185, 0xc2b2e84c53f5d185],
    [0xcdd565f765ae1bea, 0x2fc429aa9ac6df6b, 0x6f9614bffe096cae, 0x6f9614bffe096cae],
    [0x0179c29053e6527d, 0x7bceb8bb9d496f42, 0xd9bcd45ec6765860, 0xd9bcd45ec6765860],
];

/// `[O, P, R, B]` digests. B compiles exactly as R (the two versions
/// differ only in the run-time layer's release policy), so its stream is
/// R's.
fn digests(spec: &BenchSpec, machine: &MachineConfig) -> [u64; 4] {
    let [o, p, r] = [Version::Original, Version::Prefetch, Version::Release]
        .map(|v| op_digest(spec, v, machine));
    [o, p, r, r]
}

#[test]
fn paper_benchmarks_op_streams_are_pinned() {
    let machine = MachineConfig::origin200();
    let mut got = Vec::new();
    for spec in workloads::all_benchmarks() {
        let plain = digests(&spec, &machine);
        // `reseed` redraws indirection contents only; without indirect
        // arrays the reseeded stream is the published one.
        let reseeded = if spec.indirect.is_empty() {
            plain
        } else {
            digests(&spec.clone().reseed(7), &machine)
        };
        got.push((spec.name.clone(), None, plain));
        got.push((spec.name.clone(), Some(7), reseeded));
    }
    for (name, reseed, d) in &got {
        println!(
            "    ({name:?}, {reseed:?}, [{:#018x}, {:#018x}, {:#018x}, {:#018x}]),",
            d[0], d[1], d[2], d[3]
        );
    }
    let want: Vec<_> = BENCH_PINS
        .iter()
        .map(|&(n, r, d)| (n.to_string(), r, d))
        .collect();
    assert_eq!(got, want, "benchmark op streams moved");
}

#[test]
fn fuzz_corpus_op_streams_are_pinned() {
    let machine = MachineConfig::small();
    let got: Vec<[u64; 4]> = (0..32)
        .map(|seed| digests(&workloads::fuzz::spec(seed), &machine))
        .collect();
    for d in &got {
        println!(
            "    [{:#018x}, {:#018x}, {:#018x}, {:#018x}],",
            d[0], d[1], d[2], d[3]
        );
    }
    assert_eq!(got, FUZZ_PINS, "fuzz-corpus op streams moved");
}

/// Every suite cell's executor yields the same ops on a producer thread
/// as inline (B compiles exactly as R).
#[test]
fn pipelined_op_streams_equal_inline_streams() {
    let machine = MachineConfig::origin200();
    for spec in workloads::all_benchmarks() {
        for version in [Version::Original, Version::Prefetch, Version::Release] {
            let inline = stream_digest(&mut executor(&spec, version, &machine), &spec.name);
            let mut piped = Pipelined::spawn(executor(&spec, version, &machine))
                .ok()
                .expect("a producer thread");
            let piped = stream_digest(&mut piped, &spec.name);
            assert_eq!(
                (piped.0.finish(), piped.1),
                (inline.0.finish(), inline.1),
                "{}-{} differs on the producer thread",
                spec.name,
                version.label()
            );
        }
    }
}
