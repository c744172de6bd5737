//! The shared memory hierarchy below the cores — private L1s, shared LLC,
//! auxiliary tag stores, pollution filters, prefetchers, the MSHR and the
//! DDR3 memory system — with the estimators and instruments observing
//! its request stream.

use asm_cache::{AuxiliaryTagStore, PollutionFilter, SetAssocCache};
use asm_cpu::{MemIssueResult, StridePrefetcher};
use asm_dram::{Completion, MemRequest, MemorySystem};
use asm_simcore::persist::{ensure, PersistError};
use asm_simcore::{AppId, Cycle, DetHashMap, LineAddr};

use super::cores::LazyCores;
use super::probes::Probes;
use super::AppQuantumStats;
use crate::estimator::{AccessEvent, Estimators, MissEvent};

/// The completion tokens waiting on one in-flight miss. Nearly every miss
/// has exactly one waiter (merges are rare), so the first two tokens live
/// inline and only deeper merge chains pay for a heap allocation — the MSHR
/// is populated on every demand miss, making this a per-miss cost.
#[derive(Debug, Default)]
struct TokenList {
    inline: [u64; 2],
    len: u8,
    spill: Vec<u64>,
}

impl TokenList {
    fn push(&mut self, token: u64) {
        if usize::from(self.len) < self.inline.len() {
            self.inline[usize::from(self.len)] = token;
            self.len += 1;
        } else {
            self.spill.push(token);
        }
    }

    fn iter(&self) -> impl Iterator<Item = &u64> {
        self.inline[..usize::from(self.len)].iter().chain(&self.spill)
    }

    fn check_restored(&self) -> Result<(), PersistError> {
        // The spill only ever holds what the inline slots had no room for.
        let inline = usize::from(self.len);
        ensure(
            inline == self.inline.len() || (inline < self.inline.len() && self.spill.is_empty()),
            "inline/spill layout",
        )
    }
}

asm_simcore::persist_fields!(TokenList { inline, len, spill } => TokenList::check_restored);

/// One in-flight read: a demand miss or a prefetch.
#[derive(Debug, Default)]
pub(super) struct MissEntry {
    app: AppId,
    tokens: TokenList,
    prefetch: bool,
    /// The demand access this read answers: the one that created the miss
    /// or, for a prefetch, the first to merge into it — that access sees
    /// only the residual latency, and the miss event must reflect that
    /// short wait, not a full memory access. `None` while a prefetch has
    /// no demand waiting on it.
    demand: Option<DemandCtx>,
}

/// What a demand access knew when it missed.
#[derive(Debug, Clone, Copy, Default)]
struct DemandCtx {
    arrival: Cycle,
    epoch_owned: bool,
    ats_hit: Option<bool>,
    pollution_hit: bool,
}

asm_simcore::persist_fields!(DemandCtx { arrival, epoch_owned, ats_hit, pollution_hit });
asm_simcore::persist_fields!(MissEntry { app, tokens, prefetch, demand });

/// Everything a memory access touches, owned in one place so a core tick
/// borrows the cores and the hierarchy side by side.
#[derive(Debug)]
pub(super) struct Hierarchy {
    /// The three configuration values the access path reads.
    l1_latency: Cycle,
    llc_latency: Cycle,
    epoch: Cycle,
    pub(super) l1s: Vec<SetAssocCache>,
    pub(super) llc: SetAssocCache,
    pub(super) ats: Vec<AuxiliaryTagStore>,
    pub(super) pollution: Vec<PollutionFilter>,
    prefetchers: Vec<StridePrefetcher>,
    pub(super) mem: MemorySystem,
    mshr: DetHashMap<u64, MissEntry>,
    pub(super) estimators: Estimators,
    pub(super) qstats: Vec<AppQuantumStats>,
    pub(super) epoch_owner: Option<AppId>,
    next_req: u64,
    /// Count of hierarchy mutations outside the memory system (LLC/MSHR
    /// changes) that a stalled core's retry decision can observe; see
    /// [`stall_version`](Self::stall_version).
    version: u64,
    pub(super) dropped_writebacks: u64,
    /// Per-app bank-interference cycles accumulated from miss completions
    /// this quantum (always on; folded into each quantum record).
    pub(super) quantum_interference: Vec<Cycle>,
    pub(super) probes: Probes,
}

impl Hierarchy {
    pub(super) fn new(config: &crate::SystemConfig, apps: usize) -> Self {
        Hierarchy {
            l1_latency: config.l1_latency,
            llc_latency: config.llc_latency,
            epoch: config.epoch,
            l1s: (0..apps)
                .map(|_| SetAssocCache::new(config.l1_geometry, 1))
                .collect(),
            llc: SetAssocCache::new(config.llc_geometry, apps),
            ats: (0..apps)
                .map(|_| AuxiliaryTagStore::new(config.llc_geometry, config.ats_sampled_sets))
                .collect(),
            pollution: (0..apps)
                .map(|_| PollutionFilter::new(config.pollution_filter_bits))
                .collect(),
            prefetchers: config.prefetcher.map_or_else(Vec::new, |pc| {
                (0..apps)
                    .map(|_| StridePrefetcher::new(pc.degree, pc.distance))
                    .collect()
            }),
            mem: MemorySystem::with_seed(
                config.dram.clone(),
                config.scheduler,
                apps,
                config.seed ^ 0xD12A,
            ),
            mshr: DetHashMap::default(),
            estimators: Estimators::new(config, apps),
            qstats: vec![AppQuantumStats::default(); apps],
            epoch_owner: None,
            next_req: 0,
            version: 0,
            dropped_writebacks: 0,
            quantum_interference: vec![0; apps],
            probes: Probes::new(apps, config.latency_hist),
        }
    }

    /// What the field list cannot see: application indices against this
    /// system's application count.
    fn check_restored(&self) -> Result<(), PersistError> {
        let n = self.l1s.len();
        ensure(
            self.epoch_owner.is_none_or(|a| a.index() < n)
                && self.mshr.values().all(|e| e.app.index() < n),
            "app index out of range",
        )
    }

    /// The version the stall memo compares against: while it is unchanged
    /// a stalled issue attempt would stall again identically, with zero
    /// side effects (DESIGN.md §8).
    #[inline]
    pub(super) fn stall_version(&self) -> u64 {
        self.version + self.mem.mutation_count()
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    /// Handles a finished DRAM read: fill waiters, emit the miss event,
    /// insert prefetched lines.
    pub(super) fn handle_completion(&mut self, now: Cycle, c: &Completion, lazy: &mut LazyCores) {
        let Some(entry) = self.mshr.remove(&c.line.raw()) else {
            return; // e.g. a dropped-writeback artefact; cannot happen for reads
        };
        self.version += 1;
        // The delivery reads and changes the core: bring it up to `now`.
        let owner = entry.app.index();
        lazy.catch_up(owner, now, self.probes.ledger());
        let core = &mut lazy.cores[owner];
        // Whether this read is the one the core's head waits on — asked
        // before delivery below retires the head and the blocking token
        // disappears.
        let unblocks_head = core
            .blocking_token()
            .is_some_and(|bt| entry.tokens.iter().any(|&t| t == bt));
        let pollution = entry.demand.is_some_and(|d| d.pollution_hit);
        self.probes.read_returned(owner, now, c, pollution, unblocks_head);
        for token in entry.tokens.iter() {
            core.complete(*token, c.finish);
        }
        // The delivery may retire the head or free MLP: tick the core
        // this cycle instead of trusting its cached wake-up.
        lazy.wake[owner] = now;
        if entry.prefetch {
            // Fill the prefetched line into the shared cache now, and
            // mirror the fill into the ATS (the alone run prefetches the
            // same stream); demand counters are not touched.
            let out = self.llc.access(c.line, entry.app, false);
            self.handle_llc_eviction(entry.app, out.eviction, now);
            self.ats[owner].touch(c.line);
        }
        if let Some(demand) = entry.demand {
            self.emit_demand_miss(entry.app, c, demand);
        }
    }

    /// Records a finished demand miss: quantum stats, the instruments,
    /// and the estimator event.
    fn emit_demand_miss(&mut self, app: AppId, c: &Completion, demand: DemandCtx) {
        let arrival = demand.arrival;
        let stats = &mut self.qstats[app.index()];
        stats.miss_time.add(arrival, c.finish);
        let concurrent = self.mem.outstanding_reads(app) + 1;
        stats.mlp_sum += concurrent;
        stats.mlp_samples += 1;
        let interference = c.interference_cycles.min(c.finish - arrival);
        self.quantum_interference[app.index()] += interference;
        self.probes.demand_miss(c, arrival, interference);
        let ev = MissEvent {
            app,
            arrival,
            finish: c.finish,
            interference_cycles: interference,
            concurrent_misses: concurrent,
            epoch_owned_at_issue: demand.epoch_owned,
            epoch_end: if demand.epoch_owned {
                (arrival / self.epoch + 1) * self.epoch
            } else {
                Cycle::MAX
            },
            was_ats_hit: demand.ats_hit,
            pollution_hit: demand.pollution_hit,
        };
        self.estimators.on_miss_complete(&ev);
    }

    /// Side effects of an LLC insertion's eviction: pollution-filter update
    /// when another application caused the eviction, and a writeback when
    /// the line was dirty.
    fn handle_llc_eviction(
        &mut self,
        inserter: AppId,
        eviction: Option<asm_cache::EvictedLine>,
        now: Cycle,
    ) {
        let Some(ev) = eviction else { return };
        if ev.owner != inserter {
            self.pollution[ev.owner.index()].insert(ev.line);
            self.probes.cross_eviction(ev.owner.index(), inserter.index());
        }
        if ev.dirty {
            self.write_back(ev.line, ev.owner, now);
        }
    }

    /// Sends a dirty line to memory; a full write queue drops it.
    fn write_back(&mut self, line: LineAddr, owner: AppId, now: Cycle) {
        let id = self.fresh_id();
        if self.mem.enqueue(MemRequest::write(id, line, owner, now)).is_err() {
            self.dropped_writebacks += 1;
        }
    }

    /// The full demand-access path: L1 → LLC → memory.
    pub(super) fn issue(
        &mut self,
        now: Cycle,
        app: AppId,
        line: LineAddr,
        is_write: bool,
    ) -> MemIssueResult {
        let a = app.index();

        // Private L1 (single-scan hit path).
        if self.l1s[a].touch(line, is_write).is_some() {
            return MemIssueResult::Completed(now + self.l1_latency);
        }

        // L1 miss. Before mutating anything, make sure a memory request
        // could be issued if needed (otherwise stall the core).
        let llc_line = self.llc.find(line);
        let merged = self.mshr.contains_key(&line.raw());
        if llc_line.is_none() && !merged && !self.mem.can_accept_read(line) {
            return MemIssueResult::Stall;
        }
        self.version += 1;

        // Commit the L1 fill (allocate-on-miss) and push any dirty victim
        // down to the LLC (or memory if not resident there). The `touch`
        // above established absence, so the fill skips the residency scan.
        if let Some(victim) = self.l1s[a].insert_absent(line, app, is_write) {
            // A victim resident in the LLC is absorbed as a write hit.
            if victim.dirty && self.llc.touch(victim.line, true).is_none() {
                self.write_back(victim.line, victim.owner, now);
            }
        }

        // Demand access to the shared cache (this is the access CAR
        // counts). The stall check already located the line, and its
        // handle survives the victim writeback above (a promotion never
        // moves line payloads), so hit and miss take single-scan paths.
        let ats_out = self.ats[a].access(line);
        let llc_hit = llc_line.is_some();
        let eviction = match llc_line {
            Some(handle) => {
                self.llc.promote(handle, is_write);
                None
            }
            None => self.llc.insert_absent(line, app, is_write),
        };
        let pollution_hit = !llc_hit && self.pollution[a].probably_contains(line);
        self.handle_llc_eviction(app, eviction, now);

        let stats = &mut self.qstats[a];
        stats.accesses += 1;
        if llc_hit {
            stats.hits += 1;
            stats.hit_time.add(now, now + self.llc_latency);
        } else {
            stats.misses += 1;
        }

        let event = AccessEvent {
            now,
            app,
            llc_hit,
            ats: ats_out,
            epoch_owner: self.epoch_owner,
        };
        self.estimators.on_access(&event);

        // The prefetcher observes the demand stream; its prefetches are
        // issued only after the demand request claims its queue slot, so
        // prefetch traffic can never invalidate the capacity check above.
        let prefetches = if self.prefetchers.is_empty() {
            Vec::new()
        } else {
            self.prefetchers[a].observe(line)
        };

        let demand = DemandCtx {
            arrival: now,
            epoch_owned: self.epoch_owner == Some(app),
            ats_hit: ats_out.map(|o| o.hit),
            pollution_hit,
        };
        let result = if llc_hit {
            MemIssueResult::Completed(now + self.llc_latency)
        } else if self.mshr.contains_key(&line.raw()) {
            // Merge into the outstanding request for this line. If that
            // request is a prefetch nobody waits on yet, it answers this
            // access from now on.
            let token = if is_write {
                None
            } else {
                Some(self.fresh_id())
            };
            let entry = self.mshr.get_mut(&line.raw()).expect("checked above");
            entry.demand.get_or_insert(demand);
            match token {
                Some(token) => {
                    entry.tokens.push(token);
                    MemIssueResult::Pending(token)
                }
                None => MemIssueResult::Completed(now + 1),
            }
        } else {
            let id = self.fresh_id();
            let mut tokens = TokenList::default();
            if !is_write {
                tokens.push(id);
            }
            self.mshr.insert(
                line.raw(),
                MissEntry {
                    app,
                    tokens,
                    prefetch: false,
                    demand: Some(demand),
                },
            );
            self.mem
                .enqueue(MemRequest::read(id, line, app, now))
                .expect("capacity was checked before mutation");
            if is_write {
                MemIssueResult::Completed(now + 1)
            } else {
                MemIssueResult::Pending(id)
            }
        };

        for pline in prefetches {
            self.maybe_prefetch(now, app, pline);
        }
        result
    }

    /// Issues a prefetch for `line` if it is absent everywhere and the
    /// memory system has room. The ATS is updated when the fill completes
    /// (see `handle_completion`), keeping its state aligned with the
    /// shared cache's actual contents.
    fn maybe_prefetch(&mut self, now: Cycle, app: AppId, line: LineAddr) {
        if self.llc.probe(line)
            || self.mshr.contains_key(&line.raw())
            || !self.mem.can_accept_read(line)
        {
            return;
        }
        self.version += 1;
        let id = self.fresh_id();
        self.mshr.insert(
            line.raw(),
            MissEntry {
                app,
                tokens: TokenList::default(),
                prefetch: true,
                demand: None,
            },
        );
        self.mem
            .enqueue(MemRequest::prefetch(id, line, app, now))
            .expect("capacity was checked");
    }
}

// The three configuration scalars are structural (the restore target was
// built from the same configuration) and stay out.
asm_simcore::persist_fields!(Hierarchy {
    [l1s], llc, [ats], [pollution], [prefetchers], mem, mshr,
    estimators, [qstats], epoch_owner, next_req, version,
    dropped_writebacks, [quantum_interference], probes,
} => Hierarchy::check_restored);
