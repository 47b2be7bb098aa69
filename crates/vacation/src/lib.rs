//! # vacation — travel-reservation OLTP (STAMP application 7)
//!
//! Emulates a travel reservation system in the spirit of SPECjbb2000
//! (§III-B7 of the paper). The database is four red-black trees — cars,
//! flights, rooms, and customers — and client threads run sessions of
//! three kinds: **reservations**, **cancellations** (delete customer),
//! and **updates** (add/remove reservation capacity). Every session is
//! one coarse-grain transaction, which is what gives vacation its
//! medium-length transactions, many read barriers (tree searches), and
//! high fraction of time in transactions.
//!
//! Contention is controlled as in Table IV: `vacation-high` touches more
//! items per session (`-n4`) over a smaller slice of the table (`-q60`)
//! with more mutating sessions (`-u90` reserving plus 10% destructive),
//! `vacation-low` the reverse.

#![warn(missing_docs)]

use stamp_util::{AppReport, Mt19937, VacationParams};
use tm::fxhash::FxHashMap;
use tm::txn::TxResult;
use tm::{TmConfig, TmRuntime, WordAddr};
use tm_ds::{Mem, SetupMem, TmList, TmRbTree};

/// Reservation record layout: `[total, used, free, price]`.
const R_TOTAL: u64 = 0;
const R_USED: u64 = 1;
const R_FREE: u64 = 2;
const R_PRICE: u64 = 3;
const RECORD_WORDS: u64 = 4;

/// Customer record layout: `[list_head, list_size]` (a raw
/// [`TmList`] handle).
const CUSTOMER_WORDS: u64 = 2;

/// The three reservation item kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// Rental cars.
    Car = 0,
    /// Flights.
    Flight = 1,
    /// Hotel rooms.
    Room = 2,
}

impl ItemKind {
    const ALL: [ItemKind; 3] = [ItemKind::Car, ItemKind::Flight, ItemKind::Room];
}

/// The shared database: four red-black trees.
#[derive(Debug, Clone, Copy)]
pub struct Manager {
    tables: [TmRbTree; 3],
    customers: TmRbTree,
}

impl Manager {
    /// Create empty tables.
    pub fn create<M: Mem>(m: &mut M) -> TxResult<Manager> {
        Ok(Manager {
            tables: [
                TmRbTree::create(m)?,
                TmRbTree::create(m)?,
                TmRbTree::create(m)?,
            ],
            customers: TmRbTree::create(m)?,
        })
    }

    fn table(&self, kind: ItemKind) -> &TmRbTree {
        &self.tables[kind as usize]
    }

    /// Add (or extend) a reservation record: `num` seats at `price`.
    pub fn add_item<M: Mem>(
        &self,
        m: &mut M,
        kind: ItemKind,
        id: u64,
        num: u64,
        price: u64,
    ) -> TxResult<()> {
        match self.table(kind).get(m, id)? {
            Some(rec) => {
                let rec = WordAddr(rec);
                let total = m.read(rec.offset(R_TOTAL))?;
                let free = m.read(rec.offset(R_FREE))?;
                m.write(rec.offset(R_TOTAL), total + num)?;
                m.write(rec.offset(R_FREE), free + num)?;
                m.write(rec.offset(R_PRICE), price)?;
            }
            None => {
                let rec = new_record(m, num, price)?;
                self.table(kind).insert(m, id, rec.0)?;
            }
        }
        Ok(())
    }

    /// Remove up to `num` unused seats from a record; removes the record
    /// entirely when its capacity reaches zero. Returns false if the
    /// record does not exist or has too few free seats.
    pub fn remove_item<M: Mem>(
        &self,
        m: &mut M,
        kind: ItemKind,
        id: u64,
        num: u64,
    ) -> TxResult<bool> {
        let Some(rec) = self.table(kind).get(m, id)? else {
            return Ok(false);
        };
        let rec = WordAddr(rec);
        let total = m.read(rec.offset(R_TOTAL))?;
        let free = m.read(rec.offset(R_FREE))?;
        if free < num || total < num {
            return Ok(false);
        }
        if total == num {
            // Only removable if nothing is in use.
            if m.read(rec.offset(R_USED))? == 0 {
                self.table(kind).remove(m, id)?;
            } else {
                return Ok(false);
            }
        } else {
            m.write(rec.offset(R_TOTAL), total - num)?;
            m.write(rec.offset(R_FREE), free - num)?;
        }
        Ok(true)
    }

    /// Price of item `id`, if it exists and has free capacity.
    pub fn query_price<M: Mem>(&self, m: &mut M, kind: ItemKind, id: u64) -> TxResult<Option<u64>> {
        match self.table(kind).get(m, id)? {
            Some(rec) => {
                let rec = WordAddr(rec);
                if m.read(rec.offset(R_FREE))? > 0 {
                    Ok(Some(m.read(rec.offset(R_PRICE))?))
                } else {
                    Ok(None)
                }
            }
            None => Ok(None),
        }
    }

    /// Ensure a customer record exists; returns true if newly added.
    pub fn add_customer<M: Mem>(&self, m: &mut M, id: u64) -> TxResult<bool> {
        if self.customers.contains(m, id)? {
            return Ok(false);
        }
        let cust = new_customer(m)?;
        self.customers.insert(m, id, cust.0)?;
        Ok(true)
    }

    fn customer_list<M: Mem>(&self, m: &mut M, cust: WordAddr) -> TxResult<TmList> {
        let head = WordAddr(m.read(cust.offset(0))?);
        let size = cust.offset(1);
        Ok(TmList::from_raw(head, size))
    }

    /// Reserve one seat of `(kind, id)` for `customer`. Returns false if
    /// the customer or item is missing or sold out.
    pub fn reserve<M: Mem>(
        &self,
        m: &mut M,
        kind: ItemKind,
        customer: u64,
        id: u64,
    ) -> TxResult<bool> {
        let Some(cust) = self.customers.get(m, customer)? else {
            return Ok(false);
        };
        let Some(rec) = self.table(kind).get(m, id)? else {
            return Ok(false);
        };
        let rec = WordAddr(rec);
        let free = m.read(rec.offset(R_FREE))?;
        if free == 0 {
            return Ok(false);
        }
        let list = self.customer_list(m, WordAddr(cust))?;
        let key = (kind as u64) << 32 | id;
        let price = m.read(rec.offset(R_PRICE))?;
        if !list.insert(m, key, price)? {
            return Ok(false); // already holds this reservation
        }
        let used = m.read(rec.offset(R_USED))?;
        m.write(rec.offset(R_FREE), free - 1)?;
        m.write(rec.offset(R_USED), used + 1)?;
        Ok(true)
    }

    /// Delete `customer`, releasing all their reservations. Returns the
    /// total bill, or `None` if the customer does not exist.
    pub fn delete_customer<M: Mem>(&self, m: &mut M, customer: u64) -> TxResult<Option<u64>> {
        let Some(cust) = self.customers.get(m, customer)? else {
            return Ok(None);
        };
        let list = self.customer_list(m, WordAddr(cust))?;
        let mut bill = 0u64;
        let mut node = list.first(m)?;
        while !node.is_null() {
            let key = list.key(m, node)?;
            bill += list.value(m, node)?;
            // A doomed (zombie) transaction can read a garbage key;
            // aborting here lets the retry loop recover.
            let Some(&kind) = ItemKind::ALL.get((key >> 32) as usize) else {
                return tm::txn::abort();
            };
            let id = key & 0xFFFF_FFFF;
            if let Some(rec) = self.table(kind).get(m, id)? {
                let rec = WordAddr(rec);
                let free = m.read(rec.offset(R_FREE))?;
                let used = m.read(rec.offset(R_USED))?;
                m.write(rec.offset(R_FREE), free + 1)?;
                m.write(rec.offset(R_USED), used.saturating_sub(1))?;
            }
            node = list.next(m, node)?;
        }
        self.customers.remove(m, customer)?;
        Ok(Some(bill))
    }

    /// Consistency check (the analogue of STAMP's `checkTables`): every
    /// record satisfies `used + free == total`, and per-item used counts
    /// equal the number of customer reservations referencing the item.
    pub fn check_consistency<M: Mem>(&self, m: &mut M) -> TxResult<bool> {
        let mut used_by_item: FxHashMap<u64, u64> = FxHashMap::default();
        for (cid, cust) in self.customers.to_vec(m)? {
            let _ = cid;
            let list = self.customer_list(m, WordAddr(cust))?;
            for (key, _price) in list.to_vec(m)? {
                *used_by_item.entry(key).or_default() += 1;
            }
        }
        for kind in ItemKind::ALL {
            for (id, rec) in self.table(kind).to_vec(m)? {
                let rec = WordAddr(rec);
                let total = m.read(rec.offset(R_TOTAL))?;
                let used = m.read(rec.offset(R_USED))?;
                let free = m.read(rec.offset(R_FREE))?;
                if used + free != total {
                    return Ok(false);
                }
                let key = (kind as u64) << 32 | id;
                let expected = used_by_item.remove(&key).unwrap_or(0);
                if used != expected {
                    return Ok(false);
                }
            }
        }
        // Reservations pointing at deleted records are a consistency
        // bug too (remove_item refuses while used > 0, so there should
        // be none).
        Ok(used_by_item.is_empty())
    }
}

/// Allocate and fill a reservation record of `num` free seats.
fn new_record<M: Mem>(m: &mut M, num: u64, price: u64) -> TxResult<WordAddr> {
    let rec = m.alloc_padded(RECORD_WORDS);
    m.init(rec.offset(R_TOTAL), num)?;
    m.init(rec.offset(R_USED), 0)?;
    m.init(rec.offset(R_FREE), num)?;
    m.init(rec.offset(R_PRICE), price)?;
    Ok(rec)
}

/// Allocate a customer record with an empty reservation list.
fn new_customer<M: Mem>(m: &mut M) -> TxResult<WordAddr> {
    let cust = m.alloc_padded(CUSTOMER_WORDS);
    let list = TmList::create(m)?;
    let (head, size) = list.as_raw();
    m.init(cust.offset(0), head.0)?;
    m.init(cust.offset(1), size.0)?;
    Ok(cust)
}

/// Populate the database as STAMP's `manager_initialize` does: `records`
/// items per table (ids `0..records`) with capacity a multiple of 100
/// and price in `50..=550`, plus `records` customers.
///
/// Ids arrive in ascending order into empty tables, so each insert is
/// [`TmRbTree::insert_max`] under the previous id's node. The heap ends
/// up word for word the one `add_item`/`add_customer` would build.
pub fn populate(m: &mut SetupMem<'_>, params: &VacationParams) -> Manager {
    let mgr = Manager::create(m).expect("setup never aborts");
    let mut rng = Mt19937::new(params.seed);
    for kind in ItemKind::ALL {
        let table = mgr.table(kind);
        let mut max = None;
        for id in 0..params.records as u64 {
            let num = (rng.below(5) + 1) * 100;
            let price = rng.below(5) * 10 + 50;
            let rec = new_record(m, num, price).expect("setup");
            max = Some(table.insert_max(m, max, id, rec.0).expect("setup"));
        }
    }
    let mut max = None;
    for id in 0..params.records as u64 {
        let cust = new_customer(m).expect("setup");
        max = Some(mgr.customers.insert_max(m, max, id, cust.0).expect("setup"));
    }
    mgr
}

/// One client session, dispatched exactly like STAMP's `client_run`.
fn run_session(
    txn: &mut tm::Txn<'_>,
    mgr: &Manager,
    params: &VacationParams,
    rng: &mut Mt19937,
) -> TxResult<()> {
    let query_range = ((params.query_percent as u64 * params.records as u64) / 100).max(1);
    let action = rng.below(100) as u32;
    if action < params.user_percent {
        // MakeReservation: find the max-priced available item of each
        // kind among numQuery probes, then reserve them.
        let num_query = rng.below(params.items_per_session as u64) + 1;
        let customer = rng.below(query_range);
        let mut max_price = [None::<u64>; 3];
        let mut max_id = [0u64; 3];
        for _ in 0..num_query {
            let kind = ItemKind::ALL[rng.below(3) as usize];
            let id = rng.below(query_range);
            if let Some(price) = mgr.query_price(txn, kind, id)? {
                if max_price[kind as usize].is_none_or(|p| price > p) {
                    max_price[kind as usize] = Some(price);
                    max_id[kind as usize] = id;
                }
            }
            txn.work(20);
        }
        let mut any = false;
        for kind in ItemKind::ALL {
            if max_price[kind as usize].is_some() {
                any = true;
            }
        }
        if any {
            mgr.add_customer(txn, customer)?;
            for kind in ItemKind::ALL {
                if max_price[kind as usize].is_some() {
                    mgr.reserve(txn, kind, customer, max_id[kind as usize])?;
                }
            }
        }
    } else if action < params.user_percent + (100 - params.user_percent) / 2 {
        // DeleteCustomer.
        let customer = rng.below(query_range);
        mgr.delete_customer(txn, customer)?;
    } else {
        // UpdateTables.
        let num_update = rng.below(params.items_per_session as u64) + 1;
        for _ in 0..num_update {
            let kind = ItemKind::ALL[rng.below(3) as usize];
            let id = rng.below(query_range);
            if rng.below(2) == 0 {
                let price = rng.below(5) * 10 + 50;
                mgr.add_item(txn, kind, id, 100, price)?;
            } else {
                mgr.remove_item(txn, kind, id, 100)?;
            }
            txn.work(20);
        }
    }
    Ok(())
}

/// Run one vacation configuration: populate, run all sessions across
/// the configured threads, and verify table consistency.
pub fn run(params: &VacationParams, cfg: TmConfig) -> AppReport {
    let rt = TmRuntime::new(cfg);
    let mgr = {
        let mut m = SetupMem::new(rt.heap());
        populate(&mut m, params)
    };
    let sessions = params.sessions as u64;
    let report = rt.run(|ctx| {
        let tid = ctx.tid() as u64;
        let threads = ctx.threads() as u64;
        let per = sessions.div_ceil(threads);
        let lo = (tid * per).min(sessions);
        let hi = ((tid + 1) * per).min(sessions);
        for s in lo..hi {
            // Deterministic per-session stream: the workload is the same
            // regardless of thread count or TM system, and a retried
            // attempt replays the identical session (fresh clone).
            let session_rng = Mt19937::new(params.seed ^ (s as u32).wrapping_mul(0x9E37_79B9));
            ctx.atomic(|txn| {
                let mut rng = session_rng.clone();
                run_session(txn, &mgr, params, &mut rng)
            });
        }
    });
    let verified = {
        let mut m = SetupMem::new(rt.heap());
        mgr.check_consistency(&mut m).expect("setup never aborts")
    };
    AppReport::new(
        "vacation",
        format!(
            "n={} q={} u={} r={} t={}",
            params.items_per_session,
            params.query_percent,
            params.user_percent,
            params.records,
            params.sessions
        ),
        report,
        verified,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm::SystemKind;

    fn small_params() -> VacationParams {
        VacationParams {
            items_per_session: 4,
            query_percent: 60,
            user_percent: 90,
            records: 128,
            sessions: 200,
            seed: 1,
        }
    }

    #[test]
    fn manager_reserve_and_cancel() {
        let heap = tm::TmHeap::new();
        let mut m = SetupMem::new(&heap);
        let mgr = Manager::create(&mut m).unwrap();
        mgr.add_item(&mut m, ItemKind::Car, 7, 100, 50).unwrap();
        mgr.add_customer(&mut m, 1).unwrap();
        assert!(mgr.reserve(&mut m, ItemKind::Car, 1, 7).unwrap());
        // Same reservation twice is refused.
        assert!(!mgr.reserve(&mut m, ItemKind::Car, 1, 7).unwrap());
        // Unknown item/customer refused.
        assert!(!mgr.reserve(&mut m, ItemKind::Car, 1, 8).unwrap());
        assert!(!mgr.reserve(&mut m, ItemKind::Car, 2, 7).unwrap());
        assert!(mgr.check_consistency(&mut m).unwrap());
        assert_eq!(mgr.delete_customer(&mut m, 1).unwrap(), Some(50));
        assert_eq!(mgr.delete_customer(&mut m, 1).unwrap(), None);
        assert!(mgr.check_consistency(&mut m).unwrap());
    }

    #[test]
    fn sold_out_items_cannot_be_reserved() {
        let heap = tm::TmHeap::new();
        let mut m = SetupMem::new(&heap);
        let mgr = Manager::create(&mut m).unwrap();
        mgr.add_item(&mut m, ItemKind::Room, 1, 2, 80).unwrap();
        for c in 0..2u64 {
            mgr.add_customer(&mut m, c).unwrap();
            assert!(mgr.reserve(&mut m, ItemKind::Room, c, 1).unwrap());
        }
        mgr.add_customer(&mut m, 9).unwrap();
        assert!(!mgr.reserve(&mut m, ItemKind::Room, 9, 1).unwrap());
        assert_eq!(mgr.query_price(&mut m, ItemKind::Room, 1).unwrap(), None);
        assert!(mgr.check_consistency(&mut m).unwrap());
    }

    #[test]
    fn remove_item_respects_in_use_seats() {
        let heap = tm::TmHeap::new();
        let mut m = SetupMem::new(&heap);
        let mgr = Manager::create(&mut m).unwrap();
        mgr.add_item(&mut m, ItemKind::Flight, 3, 100, 60).unwrap();
        mgr.add_customer(&mut m, 0).unwrap();
        assert!(mgr.reserve(&mut m, ItemKind::Flight, 0, 3).unwrap());
        // Can't remove all 100 seats: one is used.
        assert!(!mgr.remove_item(&mut m, ItemKind::Flight, 3, 100).unwrap());
        assert!(mgr.check_consistency(&mut m).unwrap());
    }

    #[test]
    fn sessions_keep_tables_consistent_on_all_systems() {
        let p = small_params();
        for sys in SystemKind::ALL_TM {
            let rep = run(&p, TmConfig::new(sys, 4));
            assert!(rep.verified, "inconsistent tables under {sys}");
            assert_eq!(rep.run.stats.commits, 200, "session count under {sys}");
        }
    }

    #[test]
    fn high_time_in_transactions() {
        // Table VI: vacation spends 86-92% of its time in transactions.
        let rep = run(&small_params(), TmConfig::new(SystemKind::LazyHtm, 2));
        assert!(rep.verified);
        assert!(
            rep.run.stats.time_in_txn() > 0.5,
            "time in txn = {}",
            rep.run.stats.time_in_txn()
        );
        // Many more read barriers than write barriers (tree searches).
        assert!(rep.run.stats.p90_read_barriers() > 3 * rep.run.stats.p90_write_barriers());
    }

    /// The heap `populate` leaves must be the one `add_item` and
    /// `add_customer` build in the same loop order: simulated cycles
    /// depend on every allocation address.
    fn assert_populate_matches_add_path(records: u32) {
        let params = VacationParams {
            records,
            ..small_params()
        };
        let heap = tm::TmHeap::new();
        populate(&mut SetupMem::new(&heap), &params);

        let reference = tm::TmHeap::new();
        let mut m = SetupMem::new(&reference);
        let mgr = Manager::create(&mut m).unwrap();
        let mut rng = Mt19937::new(params.seed);
        for kind in ItemKind::ALL {
            for id in 0..records as u64 {
                let num = (rng.below(5) + 1) * 100;
                let price = rng.below(5) * 10 + 50;
                mgr.add_item(&mut m, kind, id, num, price).unwrap();
            }
        }
        for id in 0..records as u64 {
            assert!(mgr.add_customer(&mut m, id).unwrap());
        }

        let words = heap.allocated_words();
        assert_eq!(words, reference.allocated_words(), "records={records}");
        let differing = (tm::WORDS_PER_LINE..words)
            .filter(|&a| heap.raw_load(WordAddr(a)) != reference.raw_load(WordAddr(a)))
            .count();
        assert_eq!(
            differing, 0,
            "records={records}: {differing} of {words} words differ"
        );
    }

    #[test]
    fn populate_heap_is_word_for_word_the_add_path_heap() {
        for records in [1, 2, 3, 17, 16384] {
            assert_populate_matches_add_path(records);
        }
    }

    /// The paper-scale table (`vacation-high+`/`-low+`, `-r1048576`).
    #[test]
    #[ignore = "tier 2: populates 2 x 4 M records"]
    fn populate_heap_matches_the_add_path_at_paper_scale() {
        assert_populate_matches_add_path(1_048_576);
    }

    #[test]
    fn sequential_run_consistent() {
        let rep = run(&small_params(), TmConfig::sequential());
        assert!(rep.verified);
    }
}
