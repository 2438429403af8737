//! Flash backend: channels, dies, and page-operation service times.
//!
//! Commands fetched by the controller decompose into 4 KiB page operations
//! striped across channels and dies. Each die and each channel bus is a FIFO
//! resource; because dispatch happens in non-decreasing event time, service
//! completion times can be computed greedily at dispatch without per-stage
//! events (DESIGN.md §4). Reads occupy the die (tR) then the channel bus
//! (transfer); writes transfer first and then program (tPROG).
//!
//! The shared channel/die queues are what keep L-request latency at ms scale
//! under heavy T-pressure even with perfect NQ-level separation — the
//! internal interference the paper's §8.1 names as Daredevil's limitation.

use simkit::{FaultPlan, SimDuration, SimTime};

use crate::command::IoOpcode;

/// Garbage-collection model parameters.
///
/// Flash cannot overwrite in place: accumulated writes eventually force an
/// erase, and erase operations monopolise a die for milliseconds —
/// "the erase-after-write feature of flash memory can postpone the service
/// of small reads if large chunks of writes are present" (§8.1 of the
/// paper). The model charges one block erase on a round-robin victim die
/// every `write_threshold_pages` programmed pages.
#[derive(Clone, Copy, Debug)]
pub struct GcConfig {
    /// Programmed pages between forced erases.
    pub write_threshold_pages: u64,
    /// Block erase time (tBERS; typically 3–10 ms).
    pub erase_latency: SimDuration,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            write_threshold_pages: 256,
            erase_latency: SimDuration::from_millis(3),
        }
    }
}

/// Flash geometry and timing parameters.
#[derive(Clone, Copy, Debug)]
pub struct FlashConfig {
    /// Independent channels (buses).
    pub channels: u16,
    /// Dies per channel.
    pub dies_per_channel: u16,
    /// Page read time (tR).
    pub read_latency: SimDuration,
    /// Page program time (tPROG).
    pub program_latency: SimDuration,
    /// Bus transfer time for one 4 KiB page.
    pub transfer_latency: SimDuration,
    /// Garbage collection (None = pristine/preconditioned drive, the
    /// evaluation default — the paper preconditions before every run).
    pub gc: Option<GcConfig>,
}

impl FlashConfig {
    /// Enterprise-class backend (PM1735-like): wide and fast.
    pub fn enterprise() -> Self {
        FlashConfig {
            channels: 16,
            dies_per_channel: 8,
            read_latency: SimDuration::from_micros(60),
            program_latency: SimDuration::from_micros(600),
            transfer_latency: SimDuration::from_micros(8),
            gc: None,
        }
    }

    /// Consumer-class backend (980Pro-like): narrower.
    pub fn consumer() -> Self {
        FlashConfig {
            channels: 8,
            dies_per_channel: 4,
            read_latency: SimDuration::from_micros(50),
            program_latency: SimDuration::from_micros(700),
            transfer_latency: SimDuration::from_micros(10),
            gc: None,
        }
    }

    /// Enables garbage collection (an aged, unpreconditioned drive).
    pub fn with_gc(mut self, gc: GcConfig) -> Self {
        self.gc = Some(gc);
        self
    }

    /// Total dies.
    pub fn total_dies(&self) -> usize {
        self.channels as usize * self.dies_per_channel as usize
    }
}

/// The flash backend resource state.
#[derive(Debug)]
pub struct FlashBackend {
    config: FlashConfig,
    /// Earliest instant each channel bus is free.
    channel_free_at: Vec<SimTime>,
    /// Earliest instant each die is free, indexed `channel * dies + die`.
    die_free_at: Vec<SimTime>,
    /// Total page operations serviced (statistics).
    pages_serviced: u64,
    /// Accumulated queueing delay across page ops (statistics).
    total_queue_delay: SimDuration,
    /// Pages programmed since the last forced erase.
    writes_since_gc: u64,
    /// Round-robin GC victim cursor.
    gc_cursor: usize,
    /// Erases charged so far.
    gc_erases: u64,
}

impl FlashBackend {
    /// Creates an idle backend.
    pub fn new(config: FlashConfig) -> Self {
        FlashBackend {
            // dd-alloc-allowlist: construction; one clock per channel.
            channel_free_at: vec![SimTime::ZERO; config.channels as usize],
            // dd-alloc-allowlist: construction; one clock per die.
            die_free_at: vec![SimTime::ZERO; config.total_dies()],
            config,
            pages_serviced: 0,
            total_queue_delay: SimDuration::ZERO,
            writes_since_gc: 0,
            gc_cursor: 0,
            gc_erases: 0,
        }
    }

    /// Geometry/timing in use.
    pub fn config(&self) -> &FlashConfig {
        &self.config
    }

    /// Maps a device LBA to its (channel, die-index) pair by striping.
    fn locate(&self, lba: u64) -> (usize, usize) {
        let ch = (lba % self.config.channels as u64) as usize;
        let die_in_ch =
            ((lba / self.config.channels as u64) % self.config.dies_per_channel as u64) as usize;
        (ch, ch * self.config.dies_per_channel as usize + die_in_ch)
    }

    /// Dispatches one page operation at `now` and returns its completion
    /// time.
    ///
    /// Calls must be made in non-decreasing `now` order (the event loop
    /// guarantees this); the greedy FIFO computation is exact under that
    /// ordering.
    ///
    /// An active die-spike window in `faults` multiplies the die-occupancy
    /// part of the service (sense for reads, program for writes) — the bus
    /// is unaffected, matching a die that has gone slow rather than a
    /// controller fault.
    pub fn dispatch_page(
        &mut self,
        now: SimTime,
        lba: u64,
        op: IoOpcode,
        faults: &mut FaultPlan,
    ) -> SimTime {
        let (ch, die) = self.locate(lba);
        let spike = if faults.enabled() {
            faults.die_spike(now, die as u32).unwrap_or(1) as u64
        } else {
            1
        };
        let done = match op {
            IoOpcode::Read => {
                // Die sense, then bus transfer out.
                let die_start = now.max(self.die_free_at[die]);
                let die_done = die_start + self.config.read_latency * spike;
                self.die_free_at[die] = die_done;
                let xfer_start = die_done.max(self.channel_free_at[ch]);
                let xfer_done = xfer_start + self.config.transfer_latency;
                self.channel_free_at[ch] = xfer_done;
                self.total_queue_delay += (die_start - now) + (xfer_start - die_done);
                xfer_done
            }
            IoOpcode::Write => {
                // Bus transfer in, then program.
                let xfer_start = now.max(self.channel_free_at[ch]);
                let xfer_done = xfer_start + self.config.transfer_latency;
                self.channel_free_at[ch] = xfer_done;
                let die_start = xfer_done.max(self.die_free_at[die]);
                let die_done = die_start + self.config.program_latency * spike;
                self.die_free_at[die] = die_done;
                self.total_queue_delay += (xfer_start - now) + (die_start - xfer_done);
                self.maybe_collect(now);
                die_done
            }
            IoOpcode::Flush => unreachable!("flush has no flash pages"),
        };
        self.pages_serviced += 1;
        done
    }

    /// Dispatches all pages of a command and returns the completion time of
    /// the last page (the command's flash service completion).
    ///
    /// Multi-page reads — and writes on GC-free drives — go through
    /// [`FlashBackend::dispatch_burst`]; the output is identical to the
    /// per-page loop (see there for the argument). Writes on a GC-armed
    /// drive keep the loop because `maybe_collect` mutates a victim die
    /// between pages.
    pub fn dispatch_command(
        &mut self,
        now: SimTime,
        start_lba: u64,
        pages: u32,
        op: IoOpcode,
        faults: &mut FaultPlan,
    ) -> SimTime {
        debug_assert!(pages > 0);
        let batched = pages > 1
            && match op {
                IoOpcode::Read => true,
                IoOpcode::Write => self.config.gc.is_none(),
                IoOpcode::Flush => false,
            };
        if batched {
            return self.dispatch_burst(now, start_lba, pages, op, faults);
        }
        let mut last = now;
        for i in 0..pages {
            let done = self.dispatch_page(now, start_lba + i as u64, op, faults);
            last = last.max(done);
        }
        last
    }

    /// Dispatches a command's pages as one burst: one pass per channel
    /// group, carrying the channel cursor in a register.
    ///
    /// Exactness: every die belongs to exactly one channel, so page `i`'s
    /// die and channel are both touched only by pages `j ≡ i (mod
    /// channels)`. Walking each such group in ascending page order
    /// therefore presents every die cursor and every channel cursor with
    /// the same sequence of operations the per-page loop does, and the
    /// groups never read each other's state. Within a group the page's
    /// die-in-channel steps by one (mod dies) per page, starting one die
    /// further for groups past the channel wrap. Fault spike windows are
    /// still queried once per page op; at one instant the queries are
    /// independent per die, so group order cannot change what they
    /// return or count. Writes reach here only with GC off, where
    /// `maybe_collect` is a no-op, so skipping it per page is exact.
    ///
    /// # Panics
    ///
    /// Panics on `IoOpcode::Flush` (no flash pages) — callers decompose
    /// only reads and writes.
    pub fn dispatch_burst(
        &mut self,
        now: SimTime,
        start_lba: u64,
        pages: u32,
        op: IoOpcode,
        faults: &mut FaultPlan,
    ) -> SimTime {
        debug_assert!(pages > 0);
        debug_assert!(op != IoOpcode::Flush, "flush has no flash pages");
        let read = op == IoOpcode::Read;
        let n = pages as usize;
        let nch = self.config.channels as usize;
        let dpc = self.config.dies_per_channel as usize;
        let sense = self.config.read_latency;
        let program = self.config.program_latency;
        let xfer = self.config.transfer_latency;
        let faults_on = faults.enabled();
        // One div/mod for the whole burst: group `r` starts on channel
        // `ch0 + r` and, past the channel wrap, one die further on.
        let mut ch = (start_lba % nch as u64) as usize;
        let mut first_die = ((start_lba / nch as u64) % dpc as u64) as usize;
        let mut delay = SimDuration::ZERO;
        let mut last = now;
        for r in 0..n.min(nch) {
            let mut bus = self.channel_free_at[ch];
            let mut die_in_ch = first_die;
            let mut i = r;
            while i < n {
                let die = ch * dpc + die_in_ch;
                let spike = if faults_on {
                    faults.die_spike(now, die as u32).unwrap_or(1) as u64
                } else {
                    1
                };
                let free = self.die_free_at[die];
                let done = if read {
                    // Die sense, then bus transfer out.
                    let die_start = now.max(free);
                    let die_done = die_start + sense * spike;
                    self.die_free_at[die] = die_done;
                    let xfer_start = die_done.max(bus);
                    bus = xfer_start + xfer;
                    delay += (die_start - now) + (xfer_start - die_done);
                    bus
                } else {
                    // Bus transfer in, then program.
                    let xfer_start = now.max(bus);
                    bus = xfer_start + xfer;
                    let die_start = bus.max(free);
                    let die_done = die_start + program * spike;
                    self.die_free_at[die] = die_done;
                    delay += (xfer_start - now) + (die_start - bus);
                    die_done
                };
                last = last.max(done);
                die_in_ch += 1;
                if die_in_ch == dpc {
                    die_in_ch = 0;
                }
                i += nch;
            }
            self.channel_free_at[ch] = bus;
            ch += 1;
            if ch == nch {
                ch = 0;
                first_die += 1;
                if first_die == dpc {
                    first_die = 0;
                }
            }
        }
        self.total_queue_delay += delay;
        self.pages_serviced += n as u64;
        last
    }

    /// Accounts a programmed page toward garbage collection and, at the
    /// threshold, charges a block erase on the round-robin victim die —
    /// the erase-after-write read-latency spikes of §8.1.
    fn maybe_collect(&mut self, now: SimTime) {
        let Some(gc) = self.config.gc else {
            return;
        };
        self.writes_since_gc += 1;
        if self.writes_since_gc < gc.write_threshold_pages {
            return;
        }
        self.writes_since_gc = 0;
        let victim = self.gc_cursor % self.die_free_at.len();
        self.gc_cursor = (self.gc_cursor + 1) % self.die_free_at.len();
        let start = now.max(self.die_free_at[victim]);
        self.die_free_at[victim] = start + gc.erase_latency;
        self.gc_erases += 1;
    }

    /// Block erases charged by garbage collection so far.
    pub fn gc_erases(&self) -> u64 {
        self.gc_erases
    }

    /// Total page operations serviced so far.
    pub fn pages_serviced(&self) -> u64 {
        self.pages_serviced
    }

    /// Mean in-backend queueing delay per page (a congestion indicator).
    pub fn avg_queue_delay(&self) -> SimDuration {
        match self
            .total_queue_delay
            .as_nanos()
            .checked_div(self.pages_serviced)
        {
            Some(avg) => SimDuration::from_nanos(avg),
            None => SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend() -> FlashBackend {
        FlashBackend::new(FlashConfig {
            channels: 2,
            dies_per_channel: 2,
            read_latency: SimDuration::from_micros(50),
            program_latency: SimDuration::from_micros(500),
            transfer_latency: SimDuration::from_micros(10),
            gc: None,
        })
    }

    #[test]
    fn idle_read_takes_tr_plus_transfer() {
        let mut f = backend();
        let done = f.dispatch_page(SimTime::ZERO, 0, IoOpcode::Read, &mut FaultPlan::disabled());
        assert_eq!(done, SimTime::from_micros(60));
        assert_eq!(f.avg_queue_delay(), SimDuration::ZERO);
    }

    #[test]
    fn idle_write_takes_transfer_plus_tprog() {
        let mut f = backend();
        let done = f.dispatch_page(
            SimTime::ZERO,
            0,
            IoOpcode::Write,
            &mut FaultPlan::disabled(),
        );
        assert_eq!(done, SimTime::from_micros(510));
    }

    #[test]
    fn same_die_serializes() {
        let mut f = backend();
        // LBA 0 and LBA 4 map to channel 0; with 2 channels and 2
        // dies/channel the die index repeats every channels*dies = 4 LBAs.
        let d1 = f.dispatch_page(SimTime::ZERO, 0, IoOpcode::Read, &mut FaultPlan::disabled());
        let d2 = f.dispatch_page(SimTime::ZERO, 4, IoOpcode::Read, &mut FaultPlan::disabled());
        assert!(d2 > d1, "second op on same die must queue");
        assert!(f.avg_queue_delay() > SimDuration::ZERO);
    }

    #[test]
    fn different_channels_parallel() {
        let mut f = backend();
        let d1 = f.dispatch_page(SimTime::ZERO, 0, IoOpcode::Read, &mut FaultPlan::disabled());
        let d2 = f.dispatch_page(SimTime::ZERO, 1, IoOpcode::Read, &mut FaultPlan::disabled());
        assert_eq!(d1, d2, "independent channels serve in parallel");
    }

    #[test]
    fn same_channel_different_die_overlaps_sense() {
        let mut f = backend();
        // LBA 0 → (ch0, die0); LBA 2 → (ch0, die1): senses overlap, only the
        // bus transfer serializes.
        let d1 = f.dispatch_page(SimTime::ZERO, 0, IoOpcode::Read, &mut FaultPlan::disabled());
        let d2 = f.dispatch_page(SimTime::ZERO, 2, IoOpcode::Read, &mut FaultPlan::disabled());
        assert_eq!(d2 - d1, SimDuration::from_micros(10));
    }

    #[test]
    fn command_completion_is_max_of_pages() {
        let mut f = backend();
        let done = f.dispatch_command(
            SimTime::ZERO,
            0,
            8,
            IoOpcode::Read,
            &mut FaultPlan::disabled(),
        );
        // 8 pages over 4 dies: 2 rounds of sensing on each die plus queued
        // transfers; must exceed a single idle read.
        assert!(done > SimTime::from_micros(60));
        assert_eq!(f.pages_serviced(), 8);
    }

    #[test]
    fn gc_disabled_by_default() {
        let mut f = backend();
        for i in 0..1000 {
            f.dispatch_page(
                SimTime::from_micros(i),
                i,
                IoOpcode::Write,
                &mut FaultPlan::disabled(),
            );
        }
        assert_eq!(f.gc_erases(), 0);
    }

    #[test]
    fn gc_fires_at_write_threshold() {
        let cfg = FlashConfig {
            channels: 2,
            dies_per_channel: 2,
            read_latency: SimDuration::from_micros(50),
            program_latency: SimDuration::from_micros(500),
            transfer_latency: SimDuration::from_micros(10),
            gc: None,
        }
        .with_gc(GcConfig {
            write_threshold_pages: 8,
            erase_latency: SimDuration::from_millis(3),
        });
        let mut f = FlashBackend::new(cfg);
        for i in 0..24u64 {
            f.dispatch_page(
                SimTime::from_millis(i),
                i,
                IoOpcode::Write,
                &mut FaultPlan::disabled(),
            );
        }
        assert_eq!(f.gc_erases(), 3, "one erase per 8 programmed pages");
    }

    #[test]
    fn gc_erase_delays_reads_on_victim_die() {
        let cfg = FlashConfig {
            channels: 1,
            dies_per_channel: 1,
            read_latency: SimDuration::from_micros(50),
            program_latency: SimDuration::from_micros(500),
            transfer_latency: SimDuration::from_micros(10),
            gc: None,
        }
        .with_gc(GcConfig {
            write_threshold_pages: 1,
            erase_latency: SimDuration::from_millis(3),
        });
        let mut f = FlashBackend::new(cfg);
        // The write triggers an immediate erase on the single die.
        let w_done = f.dispatch_page(
            SimTime::ZERO,
            0,
            IoOpcode::Write,
            &mut FaultPlan::disabled(),
        );
        assert_eq!(f.gc_erases(), 1);
        // A read right after the write waits behind program + erase.
        let r_done = f.dispatch_page(
            SimTime::from_micros(1),
            0,
            IoOpcode::Read,
            &mut FaultPlan::disabled(),
        );
        assert!(
            r_done > w_done + SimDuration::from_millis(2),
            "erase must postpone the read: read done {r_done}, write done {w_done}"
        );
    }

    #[test]
    fn die_spike_multiplies_sense_latency() {
        use simkit::fault::{FaultEvent, FaultGeometry, FaultKind};
        let mut f = backend();
        let geo = FaultGeometry {
            dies: 4,
            sqs: 1,
            cqs: 1,
        };
        let mut plan = FaultPlan::from_events(
            vec![FaultEvent {
                at: SimTime::ZERO,
                kind: FaultKind::DieSpike {
                    die: 0, // LBA 0 → (ch0, die0)
                    mult: 8,
                    dur: SimDuration::from_micros(200),
                },
            }],
            geo,
        )
        .expect("die 0 is inside the geometry");
        // Inside the window: sense is 8× (400 µs) + 10 µs transfer.
        let spiked = f.dispatch_page(SimTime::ZERO, 0, IoOpcode::Read, &mut plan);
        assert_eq!(spiked, SimTime::from_micros(410));
        assert_eq!(plan.stats().spikes_applied, 1);
        // Another die in the same window is unaffected (modulo queueing).
        let clean = f.dispatch_page(SimTime::ZERO, 1, IoOpcode::Read, &mut plan);
        assert_eq!(clean, SimTime::from_micros(60));
        // After the window the spiked die serves at normal speed again.
        let mut idle = backend();
        let after = idle.dispatch_page(SimTime::from_micros(300), 0, IoOpcode::Read, &mut plan);
        assert_eq!(after, SimTime::from_micros(360));
        assert_eq!(plan.stats().spikes_applied, 1);
    }

    #[test]
    fn big_command_floods_backend_for_later_reader() {
        let mut f = backend();
        // A 32-page bulk op at t=0...
        f.dispatch_command(
            SimTime::ZERO,
            0,
            32,
            IoOpcode::Read,
            &mut FaultPlan::disabled(),
        );
        // ...delays a single-page read arriving shortly after.
        let done = f.dispatch_page(
            SimTime::from_micros(1),
            0,
            IoOpcode::Read,
            &mut FaultPlan::disabled(),
        );
        let idle_equiv = SimTime::from_micros(1) + SimDuration::from_micros(60);
        assert!(
            done > idle_equiv + SimDuration::from_micros(100),
            "in-SSD interference must delay the small read (done={done})"
        );
    }
}
