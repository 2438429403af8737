//! The harvest: a finished run's [`RunOutput`], and the owners' growable
//! structures parked in the arena for the next machine.

use super::*;

impl Machine {
    /// Builds the output of a run whose window ended at `end` after
    /// `events`, and parks the owners in `arena`.
    pub(super) fn harvest(self, end: SimTime, events: u64, arena: &mut RunArena) -> RunOutput {
        let Machine {
            host,
            mut io,
            mut drivers,
            timers,
        } = self;
        let core_busy_frac =
            host.cpu
                .busy_fractions(drivers.window_start, &timers.cpu_baseline, end);
        // Each tenant's summary moves into the output; an empty summary
        // (no histogram allocation) stays behind until teardown parks the
        // tenant vector.
        let summary = RunSummary {
            stack: io.stack.name().to_string(),
            window_start: drivers.window_start,
            window_end: end,
            tenants: drivers
                .tenants
                .iter_mut()
                .map(|t| {
                    std::mem::replace(&mut t.summary, TenantSummary::new(t.pid.0, t.class_label))
                })
                .collect(),
            events_processed: events,
            core_busy_frac,
        };
        // Harvest the span trace (oldest first) out of the device-output
        // sink; the dropped counter tells consumers whether the ring
        // wrapped mid-run.
        let sink = std::mem::take(&mut io.dev_out.trace);
        let trace_dropped = sink.dropped();
        let stack_stats = StackStats {
            route: io.stack.route_stats(),
            ..io.stack.dispatch().stats()
        };
        let dev_faults = io.device.fault_stats();
        let fault = FaultRecovery {
            spikes_applied: dev_faults.spikes_applied,
            vectors_lost: dev_faults.vectors_lost,
            stalls_engaged: dev_faults.stalls_engaged,
            polls_fired: timers.polls_fired,
            watchdog_redrives: stack_stats.watchdog_redrives,
            spurious_isrs: host.spurious_isrs,
            irq_raised_total: io.device.irq_raised_total(),
        };
        let cap_end = io.probe(host.queue.capacity());
        let out = RunOutput {
            summary,
            cap_warmup: timers.cap_warmup,
            cap_end,
            series: drivers.series.drain(..).collect(),
            trace: sink.into_events(),
            trace_dropped,
            stack_stats,
            op_latencies: drivers.op_lat,
            flash_queue_delay: io.device.flash().avg_queue_delay(),
            events_processed: events,
            troute_reassignments: stack_stats.route.reassignments,
            route_stats: stack_stats.route,
            fault,
            apps_unfinished: drivers.active_apps,
        };
        // Teardown: park every growable structure for the next run on this
        // arena. Values are reset on the way in (`ArenaReset`), so the next
        // `new_in` adopts warm capacity with fresh logical state. The device
        // itself is NOT parked — flash geometry, namespace tables, and fault
        // plans are per-scenario configuration, not recyclable scratch.
        io.stack.dispatch().park(arena);
        // App workloads park their own scratch (popularity tables, page
        // caches) before the tenant vector — which owns them — is recycled.
        for t in &mut drivers.tenants {
            if let Driver::App { workload, .. } = &mut t.driver {
                workload.park_scratch(arena);
            }
        }
        arena.put(0, host.queue);
        arena.put(0, host.cpu);
        arena.put(0, io.dev_out);
        arena.put(0, io.comps);
        arena.put(0, io.delivering);
        arena.put(0, io.migs);
        arena.put(0, drivers.bios);
        arena.put(0, drivers.tenants);
        arena.put(0, drivers.series);
        arena.put(0, timers.cpu_baseline);
        arena.put(0, timers.wd_reaped);
        out
    }
}
