//! A capacity-bounded LRU buffer pool of disk pages.
//!
//! The pool serves two backings of [`crate::SeriesStore`]:
//!
//! * **Resident** (simulated) stores keep every value in one flat vector,
//!   so the pool only tracks page *identifiers* ([`BufferPool::access`]) —
//!   enough to decide whether an access would have cost an I/O.
//! * **File-backed** stores have no resident copy: the pool caches the
//!   actual page *contents* as shared frames ([`BufferPool::fetch`] /
//!   [`BufferPool::install`]), and an eviction really drops bytes that the
//!   next access must `pread` back from disk.
//!
//! Both entry points share one LRU: the hit/miss/eviction sequence for a
//! given access pattern and capacity is identical whether frames are
//! cached or not, which is what lets a file-backed store reproduce the
//! simulated store's I/O accounting exactly.
//!
//! Every operation is O(1) apart from the victim search, which walks past
//! pinned pages only. Resident pages live in a slot vector threaded into
//! an intrusive doubly linked recency list (most recently used at the
//! head), a page→slot map with a multiplicative integer hasher finds a
//! page's slot, and slots freed by eviction or invalidation are reused
//! through a free list, so the slot vector never grows past the capacity.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::coded::CodedPage;

/// The cached contents of one page. A store caches either raw f32 frames
/// (the f32 codec) or coded pages (the u8/f16 codecs) — one kind per
/// store, but the pool itself is agnostic: hit/miss/eviction decisions
/// depend only on page identity, never on the frame representation.
#[derive(Debug, Clone)]
pub enum Frame {
    /// A raw page frame of f32 values.
    Raw(Arc<[f32]>),
    /// A compressed page (u8/f16 codes plus residual norms).
    Coded(Arc<CodedPage>),
}

impl Frame {
    /// Approximate footprint in f32-equivalents, for
    /// [`BufferPool::resident_values`].
    fn values(&self) -> usize {
        match self {
            Frame::Raw(f) => f.len(),
            Frame::Coded(p) => p.footprint_values(),
        }
    }

    /// The raw f32 frame, if this is one.
    pub fn as_raw(&self) -> Option<Arc<[f32]>> {
        match self {
            Frame::Raw(f) => Some(Arc::clone(f)),
            Frame::Coded(_) => None,
        }
    }

    /// The coded page, if this is one.
    pub fn as_coded(&self) -> Option<Arc<CodedPage>> {
        match self {
            Frame::Coded(p) => Some(Arc::clone(p)),
            Frame::Raw(_) => None,
        }
    }
}

/// Hashes a page id with one fold and one multiply. Page ids are plain
/// integers chosen by the store, not by an adversary, so SipHash's
/// flooding resistance buys nothing on this per-access path; the final
/// fold spreads the product's high bits into the low bits the table
/// indexes with, so strided ids do not pile into one bucket.
#[derive(Debug, Default, Clone, Copy)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id;
    }

    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 32)
    }
}

type PageMap<V> = HashMap<u64, V, BuildHasherDefault<PageHasher>>;

/// End-of-list marker for the recency links.
const NIL: usize = usize::MAX;

/// One resident page: its place in the recency list and, for file-backed
/// stores, the cached frame contents.
#[derive(Debug)]
struct Slot {
    page: u64,
    /// The next more recently used slot (`NIL` at the head).
    newer: usize,
    /// The next less recently used slot (`NIL` at the tail).
    older: usize,
    frame: Option<Frame>,
}

/// LRU set of pages with a fixed capacity, optionally caching page bytes.
///
/// Pages can additionally be **pinned** ([`BufferPool::pin`]): a batch that
/// knows its working set up front pins those pages so that its own
/// scattered accesses cannot evict them mid-batch. Pinning never changes
/// the hit/miss accounting of an access — it only constrains the *victim
/// choice*: eviction takes the least recently used unpinned page (walking
/// the recency list from its tail), and if every resident page is pinned
/// the pool degrades to read-through (the new page is served but not
/// cached). Pins are reference-counted so concurrent batches compose.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    /// Slot storage; `slots.len() <= capacity`. Slots on `free` are unused.
    slots: Vec<Slot>,
    /// Indices of unused slots, reused before `slots` grows.
    free: Vec<usize>,
    /// page -> index of its slot
    index: PageMap<usize>,
    /// Most recently used slot (`NIL` when empty).
    head: usize,
    /// Least recently used slot (`NIL` when empty).
    tail: usize,
    /// page -> pin count (pages a running batch declared as working set)
    pins: PageMap<u32>,
    evictions: u64,
    /// Total `f32` values held by cached frames (0 in id-only mode).
    resident_values: usize,
}

impl BufferPool {
    /// Creates a pool able to hold `capacity` pages. A capacity of zero
    /// means every access misses (pure cold-cache disk behaviour).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            slots: Vec::new(),
            free: Vec::new(),
            index: PageMap::default(),
            head: NIL,
            tail: NIL,
            pins: PageMap::default(),
            evictions: 0,
            resident_values: 0,
        }
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Pages evicted since creation (or the last [`BufferPool::clear`]).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Total `f32` values held by cached frames — the pool's real memory
    /// footprint in file-backed mode (always 0 in id-only mode).
    pub fn resident_values(&self) -> usize {
        self.resident_values
    }

    /// Detaches slot `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (newer, older) = (self.slots[i].newer, self.slots[i].older);
        match newer {
            NIL => self.head = older,
            n => self.slots[n].older = older,
        }
        match older {
            NIL => self.tail = newer,
            o => self.slots[o].newer = newer,
        }
    }

    /// Links detached slot `i` in as the most recently used.
    fn push_head(&mut self, i: usize) {
        self.slots[i].newer = NIL;
        self.slots[i].older = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].newer = i,
        }
        self.head = i;
    }

    /// Marks `page` as most recently used. Returns its slot if it was
    /// resident.
    fn touch(&mut self, page: u64) -> Option<usize> {
        let i = *self.index.get(&page)?;
        if self.head != i {
            self.unlink(i);
            self.push_head(i);
        }
        Some(i)
    }

    /// Drops resident slot `i`: unlinks it, forgets its page, releases its
    /// frame and puts the slot on the free list.
    fn release(&mut self, i: usize) {
        self.unlink(i);
        let slot = &mut self.slots[i];
        self.index.remove(&slot.page);
        if let Some(frame) = slot.frame.take() {
            self.resident_values -= frame.values();
        }
        self.free.push(i);
    }

    /// Makes a slot available, evicting the least recently used *unpinned*
    /// page if the pool is full. Returns `false` when no slot could be
    /// freed because every resident page is pinned (or the capacity is
    /// zero) — the caller then skips caching (read-through).
    fn make_room(&mut self) -> bool {
        if self.index.len() < self.capacity {
            return true;
        }
        let mut victim = self.tail;
        while victim != NIL && self.pins.contains_key(&self.slots[victim].page) {
            victim = self.slots[victim].newer;
        }
        if victim == NIL {
            return false;
        }
        self.release(victim);
        self.evictions += 1;
        true
    }

    fn insert_slot(&mut self, page: u64, frame: Option<Frame>) {
        if !self.make_room() {
            return;
        }
        if let Some(frame) = &frame {
            self.resident_values += frame.values();
        }
        let slot = Slot {
            page,
            newer: NIL,
            older: NIL,
            frame,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.index.insert(page, i);
        self.push_head(i);
    }

    /// Records an id-only access to `page` (resident/simulated stores).
    /// Returns `true` if the page was already resident (hit), `false` if it
    /// had to be "read from disk" (miss, now cached).
    pub fn access(&mut self, page: u64) -> bool {
        if self.touch(page).is_some() {
            return true;
        }
        self.insert_slot(page, None);
        false
    }

    /// Looks up the cached frame of `page` (file-backed stores). A hit
    /// touches recency and returns a shared handle to the frame; a miss
    /// returns `None` — the caller reads the page from disk and
    /// [`BufferPool::install`]s it.
    pub fn fetch(&mut self, page: u64) -> Option<Frame> {
        let i = self.touch(page)?;
        self.slots[i].frame.clone()
    }

    /// Caches the frame a [`BufferPool::fetch`] miss loaded from disk,
    /// evicting the least recently used page if the pool is full. A
    /// zero-capacity pool caches nothing.
    pub fn install(&mut self, page: u64, frame: Frame) {
        debug_assert!(
            !self.index.contains_key(&page),
            "install after a fetch hit would duplicate page {page}"
        );
        self.insert_slot(page, Some(frame));
    }

    /// Whether `page` is currently resident (without touching recency).
    pub fn contains(&self, page: u64) -> bool {
        self.index.contains_key(&page)
    }

    /// Pins `page`: while pinned it is never chosen as an eviction victim.
    /// Pinning is reference-counted ([`BufferPool::unpin`] releases one
    /// count) and independent of residency — pinning a non-resident page
    /// protects it from the moment it is cached. Pins never change
    /// hit/miss accounting, only victim choice.
    pub fn pin(&mut self, page: u64) {
        *self.pins.entry(page).or_insert(0) += 1;
    }

    /// Releases one pin count of `page`; at zero the page rejoins the
    /// plain LRU victim order at its current recency. Unpinning a page
    /// that was never pinned is a no-op.
    pub fn unpin(&mut self, page: u64) {
        if let Some(count) = self.pins.get_mut(&page) {
            *count -= 1;
            if *count == 0 {
                self.pins.remove(&page);
            }
        }
    }

    /// Whether `page` currently holds at least one pin.
    pub fn is_pinned(&self, page: u64) -> bool {
        self.pins.contains_key(&page)
    }

    /// Number of distinct currently pinned pages.
    pub fn pinned_pages(&self) -> usize {
        self.pins.len()
    }

    /// Drops `page` from the pool if resident, without counting an
    /// eviction — this is an *invalidation* (the cached frame no longer
    /// reflects the store, e.g. because an append extended the page), not a
    /// capacity decision. The next access misses and reloads fresh bytes.
    pub fn remove(&mut self, page: u64) {
        if let Some(i) = self.index.get(&page).copied() {
            self.release(i);
        }
    }

    /// Drops every resident page and zeroes the eviction counter (the paper
    /// clears OS caches between the index-building and query-answering
    /// steps). Pins are left in place: they belong to an in-flight batch,
    /// not to the cache contents.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.index.clear();
        self.head = NIL;
        self.tail = NIL;
        self.evictions = 0;
        self.resident_values = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_second_hits() {
        let mut p = BufferPool::new(4);
        assert!(!p.access(1));
        assert!(p.access(1));
        assert_eq!(p.len(), 1);
        assert!(p.contains(1));
        assert!(!p.is_empty());
        assert_eq!(p.capacity(), 4);
        assert_eq!(p.evictions(), 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut p = BufferPool::new(2);
        p.access(1);
        p.access(2);
        p.access(1); // 1 is now more recent than 2
        p.access(3); // evicts 2
        assert!(p.contains(1));
        assert!(!p.contains(2));
        assert!(p.contains(3));
        assert_eq!(p.len(), 2);
        assert_eq!(p.evictions(), 1);
    }

    #[test]
    fn zero_capacity_always_misses() {
        let mut p = BufferPool::new(0);
        assert!(!p.access(7));
        assert!(!p.access(7));
        assert!(p.is_empty());
        assert_eq!(p.evictions(), 0);
    }

    #[test]
    fn clear_empties_the_pool() {
        let mut p = BufferPool::new(8);
        for i in 0..5 {
            p.access(i);
        }
        p.clear();
        assert!(p.is_empty());
        assert!(!p.access(0), "after clear, accesses miss again");
    }

    #[test]
    fn large_workload_respects_capacity() {
        let mut p = BufferPool::new(16);
        for i in 0..10_000u64 {
            p.access(i % 64);
        }
        assert!(p.len() <= 16);
        assert!(p.evictions() > 0);
    }

    fn frame(values: &[f32]) -> Frame {
        Frame::Raw(Arc::from(values.to_vec()))
    }

    #[test]
    fn fetch_and_install_cache_real_frames() {
        let mut p = BufferPool::new(2);
        assert!(p.fetch(0).is_none(), "cold pool misses");
        p.install(0, frame(&[1.0, 2.0]));
        assert_eq!(
            p.fetch(0).and_then(|f| f.as_raw()).as_deref(),
            Some(&[1.0f32, 2.0][..])
        );
        assert_eq!(p.resident_values(), 2);
        p.install(1, frame(&[3.0]));
        assert_eq!(p.resident_values(), 3);
        // Touch 0, then install 2: the LRU victim is 1 and its bytes are
        // genuinely dropped.
        assert!(p.fetch(0).is_some());
        p.install(2, frame(&[4.0, 5.0, 6.0]));
        assert!(p.fetch(1).is_none(), "evicted frame is gone");
        assert_eq!(p.evictions(), 1);
        assert_eq!(p.resident_values(), 5);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn capacity_one_pool_holds_exactly_the_last_frame() {
        let mut p = BufferPool::new(1);
        // Pinned hit/miss/eviction sequence for pages 0,0,1,0 at capacity 1:
        // miss, hit, miss(evict 0), miss(evict 1).
        assert!(p.fetch(0).is_none());
        p.install(0, frame(&[0.0]));
        assert!(p.fetch(0).is_some());
        assert!(p.fetch(1).is_none());
        p.install(1, frame(&[1.0]));
        assert!(p.fetch(0).is_none());
        p.install(0, frame(&[0.0]));
        assert_eq!(p.evictions(), 2);
        assert_eq!(p.len(), 1);
        assert_eq!(p.resident_values(), 1);
    }

    #[test]
    fn zero_capacity_never_caches_frames() {
        let mut p = BufferPool::new(0);
        assert!(p.fetch(3).is_none());
        p.install(3, frame(&[9.0]));
        assert!(p.fetch(3).is_none());
        assert_eq!(p.resident_values(), 0);
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn remove_invalidates_without_counting_an_eviction() {
        let mut p = BufferPool::new(2);
        p.install(0, frame(&[1.0, 2.0]));
        p.install(1, frame(&[3.0]));
        p.remove(0);
        assert!(!p.contains(0));
        assert!(p.fetch(0).is_none(), "an invalidated page must miss");
        assert_eq!(p.evictions(), 0, "invalidation is not an eviction");
        assert_eq!(p.resident_values(), 1);
        assert_eq!(p.len(), 1);
        // Removing an absent page is a no-op.
        p.remove(42);
        assert_eq!(p.len(), 1);
        // The freed slot is genuinely reusable without evicting.
        p.install(2, frame(&[4.0]));
        assert_eq!(p.evictions(), 0);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn id_only_and_frame_modes_share_one_lru_policy() {
        // The same access pattern at the same capacity produces the same
        // hit/miss sequence through both entry points.
        let pattern = [0u64, 1, 2, 0, 3, 1, 1, 4, 0];
        let capacity = 2;
        let mut id_only = BufferPool::new(capacity);
        let id_hits: Vec<bool> = pattern.iter().map(|&pg| id_only.access(pg)).collect();
        let mut framed = BufferPool::new(capacity);
        let frame_hits: Vec<bool> = pattern
            .iter()
            .map(|&pg| {
                if framed.fetch(pg).is_some() {
                    true
                } else {
                    framed.install(pg, frame(&[pg as f32]));
                    false
                }
            })
            .collect();
        assert_eq!(id_hits, frame_hits);
        assert_eq!(id_only.evictions(), framed.evictions());
    }

    #[test]
    fn pinned_pages_are_never_evicted() {
        let mut p = BufferPool::new(2);
        p.pin(0);
        p.access(0);
        for page in 1..20u64 {
            p.access(page);
        }
        assert!(p.contains(0), "pinned page survived the sweep");
        assert!(p.is_pinned(0));
        assert_eq!(p.len(), 2);
        p.unpin(0);
        // Unpinned, it is the LRU victim again.
        p.access(100);
        assert!(!p.contains(0), "after release the plain LRU order applies");
    }

    #[test]
    fn fully_pinned_pool_degrades_to_read_through() {
        let mut p = BufferPool::new(1);
        p.pin(0);
        assert!(!p.access(0));
        let evictions_before = p.evictions();
        // The only slot is pinned: new pages are served but not cached,
        // and nothing is evicted.
        assert!(!p.access(1));
        assert!(!p.access(1), "read-through pages keep missing");
        assert!(p.access(0), "the pinned page is still resident");
        assert_eq!(p.evictions(), evictions_before);
        assert_eq!(p.len(), 1);
        p.unpin(0);
        assert!(!p.access(2));
        assert!(!p.contains(0), "release re-enables eviction");
    }

    #[test]
    fn pins_are_reference_counted() {
        let mut p = BufferPool::new(1);
        p.pin(3);
        p.pin(3);
        p.access(3);
        p.unpin(3);
        assert!(p.is_pinned(3), "one of two pins released");
        p.access(4);
        assert!(p.contains(3));
        p.unpin(3);
        assert!(!p.is_pinned(3));
        assert_eq!(p.pinned_pages(), 0);
        // Unpinning a never-pinned page is a no-op.
        p.unpin(77);
        p.access(5);
        assert!(!p.contains(3));
    }

    #[test]
    fn pinning_never_changes_hit_or_miss_accounting() {
        // The same access pattern with and without pins yields the same
        // hit/miss sequence whenever the pinned pages are the ones LRU
        // would have kept anyway.
        let pattern = [0u64, 1, 0, 1, 0, 1];
        let mut plain = BufferPool::new(2);
        let plain_hits: Vec<bool> = pattern.iter().map(|&pg| plain.access(pg)).collect();
        let mut pinned = BufferPool::new(2);
        pinned.pin(0);
        pinned.pin(1);
        let pinned_hits: Vec<bool> = pattern.iter().map(|&pg| pinned.access(pg)).collect();
        assert_eq!(plain_hits, pinned_hits);
        assert_eq!(plain.evictions(), pinned.evictions());
    }

    /// Reference LRU-with-pins model, mirroring the documented pool
    /// semantics move for move. The proptests below replay random op
    /// sequences against both and require identical observable state.
    struct ModelPool {
        capacity: usize,
        /// Resident pages, least recently used first.
        recency: Vec<u64>,
        pins: Vec<u64>,
        evictions: u64,
    }

    impl ModelPool {
        fn new(capacity: usize) -> Self {
            Self {
                capacity,
                recency: Vec::new(),
                pins: Vec::new(),
                evictions: 0,
            }
        }

        fn access(&mut self, page: u64) -> bool {
            if let Some(pos) = self.recency.iter().position(|&p| p == page) {
                self.recency.remove(pos);
                self.recency.push(page);
                return true;
            }
            if self.capacity == 0 {
                return false;
            }
            if self.recency.len() >= self.capacity {
                let victim = self
                    .recency
                    .iter()
                    .position(|p| !self.pins.contains(p));
                match victim {
                    Some(pos) => {
                        self.recency.remove(pos);
                        self.evictions += 1;
                    }
                    None => return false, // read-through: not cached
                }
            }
            self.recency.push(page);
            false
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random op sequences (accesses, pins, unpins, invalidations) keep
        /// the pool in lock-step with the reference model: same residency,
        /// same eviction count, pinned pages never evicted, and the
        /// counting invariants `hits + misses == reads` and
        /// `evictions <= misses` hold throughout.
        #[test]
        fn random_ops_match_the_lru_pin_model(
            ops in collection::vec(0usize..96, 1..256),
            cap in 0usize..5,
        ) {
            let mut pool = BufferPool::new(cap);
            let mut model = ModelPool::new(cap);
            let (mut reads, mut hits, mut misses) = (0u64, 0u64, 0u64);
            for op in ops {
                let page = (op % 8) as u64;
                match op / 8 {
                    0..=7 => {
                        reads += 1;
                        let hit = pool.access(page);
                        prop_assert_eq!(hit, model.access(page));
                        if hit { hits += 1 } else { misses += 1 }
                    }
                    8 | 9 => {
                        pool.pin(page);
                        model.pins.push(page);
                    }
                    10 => {
                        if model.pins.contains(&page) {
                            pool.unpin(page);
                            let pos = model.pins.iter().position(|&p| p == page).unwrap();
                            model.pins.swap_remove(pos);
                        }
                    }
                    _ => {
                        pool.remove(page);
                        model.recency.retain(|&p| p != page);
                    }
                }
                // Residency and eviction totals agree with the model after
                // every single op — this subsumes "a pinned page is never
                // evicted" and "release restores plain LRU order".
                for probe in 0..8u64 {
                    prop_assert_eq!(
                        pool.contains(probe),
                        model.recency.contains(&probe),
                        "page {} residency drifted from the model", probe
                    );
                }
                prop_assert_eq!(pool.evictions(), model.evictions);
                prop_assert!(pool.len() <= cap);
            }
            prop_assert_eq!(hits + misses, reads);
            prop_assert!(pool.evictions() <= misses, "an eviction implies an earlier miss");
        }

        /// The id-only and frame entry points agree on hits, misses and
        /// evictions under pins too — the property that keeps resident and
        /// file-backed stores' I/O accounting identical during pinned
        /// batches.
        #[test]
        fn id_only_and_frame_modes_agree_under_pins(
            ops in collection::vec(0usize..48, 1..128),
            cap in 0usize..4,
        ) {
            let mut id_only = BufferPool::new(cap);
            let mut framed = BufferPool::new(cap);
            for op in ops {
                let page = (op % 8) as u64;
                match op / 8 {
                    0..=3 => {
                        let id_hit = id_only.access(page);
                        let frame_hit = if framed.fetch(page).is_some() {
                            true
                        } else {
                            framed.install(page, frame(&[page as f32]));
                            false
                        };
                        prop_assert_eq!(id_hit, frame_hit);
                    }
                    4 => {
                        id_only.pin(page);
                        framed.pin(page);
                    }
                    _ => {
                        id_only.unpin(page);
                        framed.unpin(page);
                    }
                }
                prop_assert_eq!(id_only.evictions(), framed.evictions());
                prop_assert_eq!(id_only.len(), framed.len());
            }
        }
    }

    /// Sparse page ids: widely strided, and packed against `u64::MAX`,
    /// so the page map sees ids nothing like a dense `0..n` range.
    const SPARSE_PAGES: [u64; 8] = [
        0,
        1_000_003,
        2 * 1_000_003,
        7 * 1_000_003,
        u64::MAX,
        u64::MAX - 1,
        u64::MAX - 1_000_003,
        1 << 63,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The model replay over sparse page ids, driving the frame entry
        /// points with real frames: `fetch` (then `install` on a miss),
        /// pins, unpins, invalidations and clears. After every op the pool
        /// matches the model's residency and evictions, a hit returns the
        /// frame last installed for that page, `resident_values()` equals
        /// the sum over resident frames, and freed slots are reused
        /// rather than the slot vector growing past the capacity.
        #[test]
        fn sparse_ids_with_real_frames_match_the_model(
            ops in collection::vec(0usize..104, 1..256),
            cap in 0usize..6,
        ) {
            let mut pool = BufferPool::new(cap);
            let mut model = ModelPool::new(cap);
            // page -> (serial, len) of the frame last installed for it.
            let mut installed: HashMap<u64, (u32, usize)> = HashMap::new();
            let mut serial = 0u32;
            for op in ops {
                let page = SPARSE_PAGES[op % 8];
                match op / 8 {
                    0..=7 => {
                        let model_hit = model.access(page);
                        match pool.fetch(page) {
                            Some(frame) => {
                                prop_assert!(model_hit, "page {} hit, model missed", page);
                                let raw = frame.as_raw().unwrap();
                                let (want_serial, want_len) = installed[&page];
                                prop_assert_eq!(raw.len(), want_len);
                                prop_assert!(raw.iter().all(|&v| v == want_serial as f32));
                            }
                            None => {
                                prop_assert!(!model_hit, "page {} missed, model hit", page);
                                serial += 1;
                                let len = 1 + (serial as usize * 7) % 13;
                                pool.install(page, frame(&vec![serial as f32; len]));
                                installed.insert(page, (serial, len));
                            }
                        }
                    }
                    8 | 9 => {
                        pool.pin(page);
                        model.pins.push(page);
                    }
                    10 => {
                        if let Some(pos) = model.pins.iter().position(|&p| p == page) {
                            pool.unpin(page);
                            model.pins.swap_remove(pos);
                        }
                    }
                    11 => {
                        pool.remove(page);
                        model.recency.retain(|&p| p != page);
                    }
                    _ => {
                        pool.clear();
                        model.recency.clear();
                        model.evictions = 0;
                    }
                }
                for probe in SPARSE_PAGES {
                    prop_assert_eq!(
                        pool.contains(probe),
                        model.recency.contains(&probe),
                        "page {} residency drifted from the model", probe
                    );
                    prop_assert_eq!(pool.is_pinned(probe), model.pins.contains(&probe));
                }
                prop_assert_eq!(pool.evictions(), model.evictions);
                let expected_values: usize =
                    model.recency.iter().map(|p| installed[p].1).sum();
                prop_assert_eq!(pool.resident_values(), expected_values);
                prop_assert_eq!(pool.len(), model.recency.len());
                prop_assert!(pool.len() <= cap);
                prop_assert!(
                    pool.slots.len() <= cap,
                    "slot vector grew to {} past capacity {}", pool.slots.len(), cap
                );
                prop_assert_eq!(pool.slots.len(), pool.len() + pool.free.len());
            }
        }
    }

    #[test]
    fn coded_frames_share_the_pool_and_its_accounting() {
        use crate::coded::{CodedPage, PageCodec};
        let mut p = BufferPool::new(1);
        let page = Arc::new(CodedPage::encode(&[1.0, 2.0, 3.0, 4.0], 2, PageCodec::U8));
        p.install(0, Frame::Coded(Arc::clone(&page)));
        let hit = p.fetch(0).expect("installed frame is resident");
        assert!(hit.as_coded().is_some());
        assert!(hit.as_raw().is_none(), "a coded frame is not a raw one");
        assert!(p.resident_values() > 0);
        p.remove(0);
        assert_eq!(p.resident_values(), 0, "footprint accounting balances");
    }
}
