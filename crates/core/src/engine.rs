//! Deterministic parallel round engine.
//!
//! `run_rounds` drives the packet-mode measurement loop: every five-minute
//! round it runs each active VP's work — a bdrmap cycle when due, retirement
//! polling, and the TSLP round — and lands the results in the tsdb. The
//! per-VP work of a round goes through [`fan_out`], the one VP executor the
//! round engine and the longitudinal study share.
//!
//! Determinism is preserved **by construction**, not by scheduling:
//!
//! * Each VP owns its `SimState` (RNG draw counter, ICMP rate-limiter
//!   buckets) and its probing budget, so a VP's outcomes are a pure function
//!   of (seed, VP, round) — independent of which worker runs it or when.
//! * Workers never touch the store. Samples and quality annotations are
//!   staged into per-VP [`StagedOps`] buffers; once every VP has run the
//!   round, they are committed in **VP-index order**, so the WAL byte stream,
//!   the per-series point order, `Store::content_hash`, and checkpoint
//!   contents are identical for every thread count — including `threads: 1`,
//!   which runs the exact same stage-then-commit path without spawning.
//!
//! Journal events and metrics emitted *inside* a round may interleave across
//! workers; ordering of those side channels is explicitly not part of the
//! determinism contract (DESIGN.md §5g).

use crate::health::{Backoff, CYCLE_BACKOFF};
use crate::system::{System, SystemConfig, VpRuntime, BDRMAP_CYCLE_DAYS};
use manic_netsim::time::{SimTime, SECS_PER_DAY};
use manic_probing::tslp::{End, ROUND_SECS};
use manic_scenario::World;
use manic_tsdb::quality::{self, QualityFlags};
use manic_tsdb::{Point, Store};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `f(i)` once for every `i < n`. The calling thread is worker 0 and
/// `threads.min(n) - 1` scoped helpers join it; every worker pulls the next
/// index from one shared counter (work stealing, since a bdrmap cycle makes
/// one VP's share of a round far heavier than another's). At `threads <= 1`
/// nothing is spawned and `0..n` runs in order on the caller.
///
/// Returns once every index has run. A panic escaping `f` propagates out of
/// the scope to the caller.
pub(crate) fn fan_out(threads: usize, n: usize, f: impl Fn(usize) + Sync) {
    // `Relaxed` suffices: the counter only hands out indices. What `f`
    // writes is published to the caller by the scope's join.
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        f(i);
    };
    std::thread::scope(|s| {
        for _ in 1..threads.min(n) {
            s.spawn(work);
        }
        work();
    });
}

/// Per-VP staging buffers: everything a round wants to persist, recorded in
/// probe order and replayed against the store at commit time. Task indices
/// resolve to store slots through the VP's slot table, so staging a sample
/// is one push — no formatting, no store locks — and committing it hashes
/// no key.
#[derive(Default)]
pub(crate) struct StagedOps {
    /// `(task, end, t, rtt_ms)` in probe order: grouped by task, tasks
    /// ascending.
    samples: Vec<(u32, End, SimTime, f64)>,
    /// `(task, end, from, until, flags)` in call order.
    annots: Vec<(u32, End, SimTime, SimTime, QualityFlags)>,
}

impl StagedOps {
    pub(crate) fn sample(&mut self, ti: usize, end: End, t: SimTime, rtt_ms: f64) {
        self.samples.push((ti as u32, end, t, rtt_ms));
    }

    pub(crate) fn annotate(
        &mut self,
        ti: usize,
        end: End,
        from: SimTime,
        until: SimTime,
        flags: QualityFlags,
    ) {
        self.annots.push((ti as u32, end, from, until, flags));
    }

    /// Flag task `ti`'s near and far windows over the round at `t` as a gap
    /// the control loop chose (`QUARANTINED|GAP`), so inference masks them.
    pub(crate) fn gap(&mut self, ti: usize, t: SimTime) {
        for end in [End::Near, End::Far] {
            let flags = quality::QUARANTINED | quality::GAP;
            self.annotate(ti, end, t, t + ROUND_SECS, flags);
        }
    }

    /// Replace everything staged for the round at `t` with a gap over
    /// every task of `vp`: a round its supervisor skipped or a panic cut
    /// short contributes no samples, only the flags that mask it.
    fn gap_round(&mut self, vp: &VpRuntime, t: SimTime) {
        self.samples.clear();
        self.annots.clear();
        for ti in 0..vp.tslp.tasks.len() {
            self.gap(ti, t);
        }
    }

    /// Replay the staged round against the store, fold it into the VP's
    /// incremental link summaries, and clear the buffers. Annotations go
    /// first, in call order; then each task's near/far sample runs become
    /// one `write_batch_at` per series (one shard-lock acquisition, one WAL
    /// staging pass) instead of a lock per point. Writes go by slot, in the
    /// same order a key-based replay would make them, so WAL bytes do not
    /// depend on which of the two was used. `near`/`far` are reusable
    /// scratch buffers owned by the commit loop.
    fn commit(
        &mut self,
        store: &Store,
        vp: &mut VpRuntime,
        t: SimTime,
        window_bins: usize,
        near: &mut Vec<Point>,
        far: &mut Vec<Point>,
    ) {
        if vp.slots.is_empty() {
            // First commit since a task set was installed.
            vp.resolve_slots(store);
        }
        debug_assert_eq!(vp.slots.len(), vp.tslp.tasks.len(), "stale slot table");
        for &(ti, end, from, until, flags) in &self.annots {
            store.annotate_at(vp.slot(ti as usize, end), from, until, flags);
        }
        let mut i = 0;
        while i < self.samples.len() {
            let ti = self.samples[i].0;
            near.clear();
            far.clear();
            let mut j = i;
            while j < self.samples.len() && self.samples[j].0 == ti {
                let (_, end, t, v) = self.samples[j];
                match end {
                    End::Near => near.push(Point { t, v }),
                    End::Far => far.push(Point { t, v }),
                }
                j += 1;
            }
            let [near_slot, far_slot] = vp.slots[ti as usize];
            store.write_batch_at(near_slot, near);
            store.write_batch_at(far_slot, far);
            i = j;
        }

        // Incremental summary maintenance, one summary lookup per task
        // (runs every round, including empty ones, so windows advance
        // deterministically). Existing rings advance in O(1 bin); tasks
        // without a ring backfill one from the store — which at this point
        // already contains the round's writes, so a fresh ring starts
        // exactly equal to the store's dense view. Then the task's staged
        // far-end ops fold in, annotations before samples as they reached
        // the store. The per-bin folds (`min`, `|=`) are idempotent, so
        // freshly backfilled rings absorb the replay unchanged.
        //
        // Far annotations are put in task order (a stable sort keeps each
        // task's call order; they usually are in order already); samples
        // always are.
        self.annots.retain(|a| a.1 == End::Far);
        if !self.annots.is_sorted_by_key(|a| a.0) {
            self.annots.sort_by_key(|a| a.0);
        }
        let (mut a, mut s) = (0, 0);
        let hi_end = t + ROUND_SECS;
        for (ti, task) in vp.tslp.tasks.iter().enumerate() {
            let summary = match vp.summaries.entry((task.near_ip, task.far_ip)) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    let summary = e.into_mut();
                    summary.advance_to(hi_end);
                    summary
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(manic_inference::LinkSummary::backfilled(
                        store,
                        vp.tslp.key(ti, End::Far),
                        hi_end,
                        window_bins,
                        ROUND_SECS,
                    ))
                }
            };
            while let Some(&(_, _, from, until, flags)) =
                self.annots.get(a).filter(|op| op.0 as usize == ti)
            {
                summary.observe_flags(from, until, flags);
                a += 1;
            }
            while let Some(&(_, end, ts, v)) =
                self.samples.get(s).filter(|op| op.0 as usize == ti)
            {
                if end == End::Far {
                    summary.observe_sample(ts, v);
                }
                s += 1;
            }
        }
        debug_assert_eq!(
            (a, s),
            (self.annots.len(), self.samples.len()),
            "staged ops name a task outside the task set, or samples out of task order"
        );
        self.annots.clear();
        self.samples.clear();
    }
}

/// One VP's share of one round: bdrmap cycle when due (with empty-cycle
/// backoff), retirement polling, then the health-gated TSLP round. Mirrors
/// the original serial control loop exactly — per VP, the relative order of
/// cycle → retirement check → round is unchanged, and no step reads another
/// VP's state.
fn vp_round(
    world: &World,
    cfg: &SystemConfig,
    vp: &mut VpRuntime,
    stage: &mut StagedOps,
    t: SimTime,
    cycle_secs: i64,
) {
    if !vp.active {
        return;
    }
    let due = match vp.last_cycle {
        // Immediately-due (startup or reactive refresh), unless a string of
        // failed cycles has us backing off.
        None => {
            let ok = vp.cycle_backoff.may_attempt(t);
            if !ok {
                crate::obs::metrics().backoff_waits.inc();
            }
            ok
        }
        Some(last) => t - last >= cycle_secs,
    };
    if due {
        let n = System::bdrmap_cycle_for(world, cfg, vp, t);
        if n == 0 {
            // The VP's view collapsed (uplink outage, first-hop reboot):
            // bounded retry instead of a dead 2 days.
            vp.last_cycle = None;
            vp.cycle_backoff.fail(t, CYCLE_BACKOFF, 0.0);
            crate::obs::metrics().bdrmap_cycles_empty.inc();
            manic_obs::event!(
                manic_obs::WARN, "core", "bdrmap_cycle_empty", t,
                vp = vp.handle.name.as_str(),
            );
        } else {
            vp.cycle_backoff = Backoff::default();
        }
    }
    // Host churn driven by the fault schedule (§3): the VP is withdrawn;
    // history remains, probing stops.
    if world.net.fault.vp_retired(vp.handle.router, t) {
        vp.active = false;
        crate::obs::metrics().vp_retired.inc();
        manic_obs::event!(
            manic_obs::WARN, "core", "vp_retired", t,
            vp = vp.handle.name.as_str(),
        );
        return;
    }
    if world.net.fault.vp_panics(vp.handle.router, t) {
        panic!("injected VP worker panic ({})", vp.handle.name);
    }
    System::round_with_health(vp, &world.net, cfg, t, stage);
}

/// [`vp_round`] under supervision: the worker is isolated with
/// `catch_unwind`, so one VP crashing costs that VP a strike — quarantine
/// with backoff, retirement after too many — instead of tearing down the
/// whole round.
///
/// A round the supervisor skips, and a round a panic cuts short, are staged
/// as `QUARANTINED|GAP` windows over every task's near and far series, so
/// inference masks them like any other gap the control loop chose.
///
/// Determinism: a panic at time `t` is itself deterministic (the injected
/// kind is a pure function of `(router, t)`, and a real one reproduces from
/// the same VP state), and the partially staged ops of a panicked round are
/// replaced wholesale — so every thread count sees the same store bytes.
fn supervised_vp_round(
    world: &World,
    cfg: &SystemConfig,
    vp: &mut VpRuntime,
    stage: &mut StagedOps,
    t: SimTime,
    cycle_secs: i64,
) {
    if !vp.supervisor.may_run(t) {
        if vp.active {
            stage.gap_round(vp, t);
        }
        return;
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        vp_round(world, cfg, vp, stage, t, cycle_secs)
    }));
    if let Err(payload) = outcome {
        // Nothing measured in the crashed round may reach the store: a
        // panic mid-probe leaves half a round staged.
        stage.gap_round(vp, t);
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        crate::obs::metrics().vp_panics.inc();
        let to = vp.supervisor.strike(t);
        crate::obs::metrics().health_transition(to).inc();
        manic_obs::event!(
            manic_obs::ERROR, "core", "vp_worker_panicked", t,
            vp = vp.handle.name.as_str(),
            panic = msg.as_str(),
            strikes = vp.supervisor.strikes(),
            state = to.as_str(),
        );
    }
}

/// Drive rounds over `[from, to)`; returns the number of rounds executed.
///
/// Each round fans the VPs out, then commits their staged results in
/// VP-index order. One stage-then-commit sequence at every thread count is
/// what makes `--threads N` byte-compatible with `--threads 1`.
pub(crate) fn run_rounds(sys: &mut System, from: SimTime, to: SimTime) -> usize {
    let System { world, store, vps, cfg, .. } = sys;
    let (world, cfg, store): (&World, &SystemConfig, &Store) = (world, cfg, store);
    let cycle_secs = BDRMAP_CYCLE_DAYS * SECS_PER_DAY;

    // Each slot pairs one VP's runtime with its staging buffer. A round
    // claims every slot exactly once, so the per-slot mutex is uncontended.
    let mut slots: Vec<Mutex<(&mut VpRuntime, StagedOps)>> = vps
        .iter_mut()
        .map(|vp| Mutex::new((vp, StagedOps::default())))
        .collect();
    let m = crate::obs::metrics();
    let (mut near_scratch, mut far_scratch) = (Vec::new(), Vec::new());
    let mut rounds = 0;
    let mut t = from;
    while t < to {
        let round_started = std::time::Instant::now();
        fan_out(cfg.threads, slots.len(), |i| {
            let mut slot = slots[i]
                .lock()
                .expect("VP slot poisoned outside catch_unwind");
            let (vp, stage) = &mut *slot;
            supervised_vp_round(world, cfg, vp, stage, t, cycle_secs);
        });
        let commit_started = std::time::Instant::now();
        for slot in &mut slots {
            let (vp, stage) = slot
                .get_mut()
                .expect("VP slot poisoned outside catch_unwind");
            stage.commit(
                store,
                vp,
                t,
                cfg.summary_window_bins,
                &mut near_scratch,
                &mut far_scratch,
            );
        }
        m.commit_ms
            .observe(commit_started.elapsed().as_secs_f64() * 1e3);
        m.rounds.inc();
        m.round_duration
            .observe(round_started.elapsed().as_secs_f64() * 1e3);
        rounds += 1;
        t += ROUND_SECS;
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::fan_out;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn fan_out_visits_every_index_exactly_once() {
        for threads in [1, 2, 8] {
            for n in [0, 1, 7, 100] {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                fan_out(threads, n, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "threads={threads} n={n}: some index not visited exactly once"
                );
            }
        }
    }

    #[test]
    fn fan_out_at_one_thread_runs_in_order_on_the_caller() {
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        fan_out(1, 100, |i| {
            assert_eq!(
                std::thread::current().id(),
                caller,
                "index {i} ran off the caller"
            );
            seen.lock().unwrap().push(i);
        });
        assert_eq!(seen.into_inner().unwrap(), (0..100).collect::<Vec<_>>());
    }
}
