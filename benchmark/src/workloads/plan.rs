//! What the two mutable-store workloads share: the op plan, the
//! `BTreeMap` model every returned value is checked against, and the
//! comparison of a store's live rows and top-k with that model.

use crate::report::Run;
use crate::stats::{SplitMix64, Zipf};
use crate::synth::{Mixture, Row};
use crate::trace::SpanId;
use lh_core::{EmbeddingStore, PluginVariant, ServeHit, ShardedServingStore, ShardedSnapshot};
use std::collections::BTreeMap;
use std::time::Instant;

pub enum Op {
    /// Top-k for this row of the query pool.
    Query(usize),
    Upsert(u64, Row),
    Remove(u64),
}

/// Generates the op stream block by block: the same seed gives the same
/// stream, however many blocks a run has time for.
pub struct Plan {
    rng: SplitMix64,
    mix: Mixture,
    /// Write ids are zipf ranks over a fixed permutation of `0..2n`: hot
    /// updates of seeded rows next to a cold tail of inserts, with the
    /// hot ids spread over the id space (and so over the shards).
    zipf: Zipf,
    ids: Vec<u64>,
    pool: usize,
    query_pct: usize,
    upsert_pct: usize,
}

impl Plan {
    /// `query_pct` + `upsert_pct` ≤ 100; removes take the rest.
    pub fn new(
        seed: u64,
        mix: Mixture,
        n: usize,
        pool: usize,
        query_pct: usize,
        upsert_pct: usize,
    ) -> Plan {
        assert!(query_pct + upsert_pct <= 100);
        let mut rng = SplitMix64::new(seed ^ 0x0b5e_55ed);
        let ids = rng.permutation(2 * n);
        Plan {
            rng,
            mix,
            zipf: Zipf::new(2 * n, 1.05),
            ids,
            pool,
            query_pct,
            upsert_pct,
        }
    }

    pub fn block(&mut self, len: usize) -> Vec<Op> {
        (0..len)
            .map(|_| {
                let dice = self.rng.below(100);
                if dice < self.query_pct {
                    Op::Query(self.rng.below(self.pool))
                } else {
                    let id = self.ids[self.zipf.sample(&mut self.rng)];
                    if dice < self.query_pct + self.upsert_pct {
                        Op::Upsert(id, self.mix.row(&mut self.rng))
                    } else {
                        Op::Remove(id)
                    }
                }
            })
            .collect()
    }
}

/// Span names of an upsert and of a remove.
pub type WriteSpans = [&'static str; 2];

pub const WRITES: WriteSpans = ["ShardedServingStore::upsert", "ShardedServingStore::remove"];

/// Issues one write (`op` is an upsert or a remove) with a span around
/// it, and returns what the store returned and the call's latency in µs.
pub fn timed_write(
    run: &mut Run,
    store: &ShardedServingStore,
    variant: PluginVariant,
    op: &Op,
    op_id: u64,
    [upsert_span, remove_span]: WriteSpans,
    parent: Option<SpanId>,
) -> (Result<bool, String>, f64) {
    let t0 = Instant::now();
    let (span, returned) = match op {
        Op::Upsert(id, row) => (
            upsert_span,
            store.upsert(
                *id,
                &row.eu,
                row.hyper_for(variant),
                row.factors_for(variant),
            ),
        ),
        Op::Remove(id) => (remove_span, store.remove(*id)),
        Op::Query(_) => unreachable!("a query is not a write"),
    };
    let t1 = Instant::now();
    run.tracer.record(span, op_id, t0, t1, parent);
    (
        returned.map_err(|e| e.to_string()),
        (t1 - t0).as_secs_f64() * 1e6,
    )
}

/// Folds a block's ops into the input hash.
pub fn hash_block(run: &mut Run, block: &[Op]) {
    for op in block {
        match op {
            Op::Query(qi) => run.hash.u64(*qi as u64),
            Op::Upsert(id, row) => {
                run.hash.u64(*id);
                run.hash.f32s(&row.eu);
            }
            Op::Remove(id) => run.hash.u64(!*id),
        }
    }
}

/// The reference the store is held to: live id → Euclidean row.
pub struct Model(BTreeMap<u64, Vec<f32>>);

impl Model {
    pub fn seeded(base: &EmbeddingStore) -> Model {
        Model(
            (0..base.len())
                .map(|i| (i as u64, base.eu_row(i).to_vec()))
                .collect(),
        )
    }

    /// Applies one block's writes and counts the returned bools
    /// (`replaced` for an upsert, `existed` for a remove) that disagree
    /// with the model. `returned` holds one entry per write, in order.
    pub fn apply(&mut self, block: &[Op], returned: &[Result<bool, String>]) -> u64 {
        let mut wrong = 0;
        let mut returned = returned.iter();
        for op in block {
            let expected = match op {
                Op::Query(_) => continue,
                Op::Upsert(id, row) => self.0.insert(*id, row.eu.clone()).is_some(),
                Op::Remove(id) => self.0.remove(id).is_some(),
            };
            match returned.next() {
                Some(Ok(got)) if *got == expected => {}
                Some(Ok(_)) => wrong += 1,
                Some(Err(e)) => {
                    eprintln!("write failed: {e}");
                    wrong += 1;
                }
                None => wrong += 1,
            }
        }
        wrong
    }

    /// The snapshot's live ids and rows equal the model's.
    pub fn check_rows(&self, run: &mut Run, what: &str, snap: &ShardedSnapshot) {
        let mut live = snap.live_ids();
        live.sort_unstable();
        let expected: Vec<u64> = self.0.keys().copied().collect();
        run.check(
            &format!("{what}: live ids equal the model"),
            live == expected,
        );
        let (flat, ids) = snap.to_flat();
        let rows_match = ids.len() == flat.len()
            && ids
                .iter()
                .enumerate()
                .all(|(r, id)| self.0.get(id).is_some_and(|row| row[..] == *flat.eu_row(r)));
        run.check(&format!("{what}: live rows equal the model"), rows_match);
    }
}

pub type ServedBits = Vec<(u64, u32)>;

pub fn served_bits(hits: &[ServeHit]) -> ServedBits {
    hits.iter().map(|h| (h.id, h.distance.to_bits())).collect()
}

/// Holds one served top-k to a flat scan of `flat` (the snapshot's own
/// live rows, with their ids): same ids, same `f32` bits, same order.
pub fn check_against_flat(
    run: &mut Run,
    what: &str,
    served: &ServedBits,
    (flat, ids): &(EmbeddingStore, Vec<u64>),
    pool: &EmbeddingStore,
    qi: usize,
    k: usize,
) {
    let reference: ServedBits = flat
        .knn(pool, qi, k)
        .iter()
        .map(|h| (ids[h.index], h.distance.to_bits()))
        .collect();
    run.check(
        &format!("{what}: snapshot knn equals flat scan"),
        *served == reference,
    );
}

/// Snapshot top-k on the first 64 pool queries; with `against_flat`,
/// each is also held to a flat scan of the snapshot's own live rows.
pub fn snapshot_knn(
    run: &mut Run,
    what: &str,
    snap: &ShardedSnapshot,
    pool: &EmbeddingStore,
    k: usize,
    against_flat: bool,
) -> Vec<ServedBits> {
    let flat = against_flat.then(|| snap.to_flat());
    (0..64.min(pool.len()))
        .map(|qi| {
            let served = served_bits(&snap.knn(pool, qi, k));
            if let Some(flat) = &flat {
                check_against_flat(run, what, &served, flat, pool, qi, k);
            }
            served
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lh_core::ShardedServingOptions;

    #[test]
    fn an_injected_wrong_hit_fails_the_flat_scan_check() {
        let mut rng = SplitMix64::new(1);
        let mix = Mixture::new(PluginVariant::Original, &mut rng);
        let (base, pool) = (mix.store(200, &mut rng), mix.store(8, &mut rng));
        let options = ShardedServingOptions {
            shards: 2,
            ..Default::default()
        };
        let store = ShardedServingStore::new(base, (0..200).collect(), options).unwrap();
        let snap = store.snapshot();
        let mut run = Run::new(1, 0.0, false);
        let served = snapshot_knn(&mut run, "t", &snap, &pool, 5, true);
        assert_eq!(run.failed(), 0, "the store's own answers pass");

        let flat = snap.to_flat();
        let mut wrong_id = served[0].clone();
        wrong_id[2].0 ^= 1;
        check_against_flat(&mut run, "t", &wrong_id, &flat, &pool, 0, 5);
        assert_eq!(run.failed(), 1, "another id in third place");
        let mut wrong_bit = served[0].clone();
        wrong_bit[4].1 ^= 1;
        check_against_flat(&mut run, "t", &wrong_bit, &flat, &pool, 0, 5);
        assert_eq!(run.failed(), 2, "one bit of one distance");
        let mut swapped = served[0].clone();
        swapped.swap(0, 1);
        check_against_flat(&mut run, "t", &swapped, &flat, &pool, 0, 5);
        assert_eq!(run.failed(), 3, "right hits, wrong order");
    }

    #[test]
    fn model_rejects_a_wrong_returned_bool() {
        let mut rng = SplitMix64::new(1);
        let mix = Mixture::new(PluginVariant::Original, &mut rng);
        let base = mix.store(4, &mut rng);
        let row = || {
            Mixture::new(PluginVariant::Original, &mut SplitMix64::new(2))
                .row(&mut SplitMix64::new(3))
        };
        // id 1 is seeded (replaced = true), id 9 is new (false), id 7
        // was never there (existed = false).
        let block = vec![
            Op::Upsert(1, row()),
            Op::Query(0),
            Op::Upsert(9, row()),
            Op::Remove(7),
        ];
        let truthful = [Ok(true), Ok(false), Ok(false)];
        assert_eq!(Model::seeded(&base).apply(&block, &truthful), 0);
        let lying = [Ok(true), Ok(true), Ok(false)];
        assert_eq!(Model::seeded(&base).apply(&block, &lying), 1);
        let erring = [Ok(true), Ok(false), Err("io".to_string())];
        assert_eq!(Model::seeded(&base).apply(&block, &erring), 1);
        // A missing return value is a failure too.
        assert_eq!(Model::seeded(&base).apply(&block, &truthful[..2]), 1);
        let mut model = Model::seeded(&base);
        model.apply(&block, &truthful);
        assert_eq!(model.0.len(), 5);
    }
}
