//! A guided tour of the stack-level API, without the testbed: build a
//! device, mount Daredevil on it, submit requests by hand, and watch the
//! routing machinery (troute → nqreg → NSQ) do NQ-level separation.
//!
//! ```sh
//! cargo run --release --example stack_internals_tour
//! ```

use daredevil_repro::blkstack::bio::{Bio, BioId, ReqFlags};
use daredevil_repro::blkstack::stack::StackEnv;
use daredevil_repro::blkstack::{Pid, StorageStack, TaskStruct};
use daredevil_repro::nvme::{DeviceOutput, IoOpcode, SqId};
use daredevil_repro::prelude::*;
use daredevil_repro::simkit::SimRng;

fn main() {
    // A small device: 8 NSQs of depth 4 over 8 NCQs, one namespace. The
    // merit heaps' MRU budget is the NSQ depth, so this shallow device
    // makes them visibly re-sort in this short demo.
    let mut cfg = NvmeConfig::sv_m();
    cfg.nr_sqs = 8;
    cfg.nr_cqs = 8;
    cfg.sq_depth = 4;
    let mut device = NvmeDevice::new(cfg, 4);

    // Daredevil, full variant.
    let mut stack = DaredevilStack::new(DaredevilConfig::default(), &device);

    // Plumbing the testbed would normally provide.
    let mut dev_out = DeviceOutput::new();
    let mut completions = Vec::new();
    let mut migrations = Vec::new();
    let mut rng = SimRng::new(7);
    let costs = daredevil_repro::cpu::HostCosts::default();
    let mut env = StackEnv {
        now: SimTime::ZERO,
        device: &mut device,
        dev_out: &mut dev_out,
        completions: &mut completions,
        migrations: &mut migrations,
        rng: &mut rng,
        costs: &costs,
    };

    // One latency-sensitive and one throughput tenant, same core — the
    // configuration vanilla blk-mq cannot separate.
    let l_tenant = TaskStruct::new(Pid(1), 0, IoPriorityClass::RealTime, NamespaceId(1), "L");
    let t_tenant = TaskStruct::new(Pid(2), 0, IoPriorityClass::BestEffort, NamespaceId(1), "T");
    stack.register_tenant(&l_tenant, &mut env);
    stack.register_tenant(&t_tenant, &mut env);

    let l_route = stack.troute().route_of(Pid(1)).expect("registered");
    let t_route = stack.troute().route_of(Pid(2)).expect("registered");
    println!("troute assigned default NSQs:");
    println!("  L-tenant → {} (high-priority group)", l_route.default_sq);
    println!("  T-tenant → {} (low-priority group)", t_route.default_sq);

    // Submit one request each from the same core.
    let mk_bio = |id: u64, tenant: u64, bytes: u64, flags: ReqFlags| Bio {
        id: BioId(id),
        tenant: Pid(tenant),
        core: 0,
        nsid: NamespaceId(1),
        op: IoOpcode::Read,
        offset_blocks: id * 64,
        bytes,
        flags,
        ioprio: if tenant == 1 {
            IoPriorityClass::RealTime
        } else {
            IoPriorityClass::BestEffort
        },
        issued_at: SimTime::ZERO,
    };
    let cost_l = stack.submit(&[mk_bio(1, 1, 4096, ReqFlags::NONE)], &mut env);
    let cost_t = stack.submit(&[mk_bio(2, 2, 131072, ReqFlags::NONE)], &mut env);
    println!("\nsubmission CPU costs: L={cost_l}, T={cost_t}");

    // A T-tenant fsync-like request is an *outlier*: it escapes to the
    // high-priority group even though its tenant is throughput-class.
    stack.submit(&[mk_bio(3, 2, 4096, ReqFlags::SYNC)], &mut env);

    println!("\nper-NSQ occupancy after submission:");
    for q in 0..8u16 {
        let st = env.device.sq_stats(SqId(q));
        if st.submitted_total > 0 {
            println!(
                "  {}: {} command(s) — {} group",
                SqId(q),
                st.submitted_total,
                if q < 4 {
                    "high-priority"
                } else {
                    "low-priority"
                }
            );
        }
    }

    println!("\nrouter stats: {:?}", stack.route_stats());
    println!("The 4 KiB L-read and the outlier sync read sit in high-priority");
    println!("NSQs; the 128 KiB T-read sits in a low-priority NSQ. No static");
    println!("core binding was involved — all three came from core 0.");
}
