//! Heap files: unordered tuple storage over a linked chain of slotted
//! pages, addressed by RID (page, slot) — the layout behind every table in
//! the paper's Table 5 schema.

use crate::blob::BlobStore;
use crate::error::StorageError;
use crate::page::{SlottedPage, MAX_TUPLE};
use crate::pager::{BufferPool, PageRead};
use crate::row::{encode_row, Row, Schema, Value};
use crate::{PageId, NO_PAGE};
use parking_lot::Mutex;

/// Record id: a physical tuple address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// Page id.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

impl Rid {
    /// Pack into a u64 for storage in index values (page in the high 48
    /// bits, slot in the low 16).
    pub fn to_u64(self) -> u64 {
        (self.page << 16) | self.slot as u64
    }

    /// Unpack from [`Rid::to_u64`].
    pub fn from_u64(v: u64) -> Rid {
        Rid {
            page: v >> 16,
            slot: (v & 0xFFFF) as u16,
        }
    }
}

/// A heap file rooted at its first page. Appends go to the tail page
/// only, so rows stay in insert order and an append costs one page fetch
/// however long the chain is. Keep one handle per heap (the
/// [`crate::Database`] owns one per table): the tail is cached in the
/// handle.
pub struct HeapFile {
    first: PageId,
    /// The last page of the chain; `NO_PAGE` until the first append of a
    /// reopened heap walks the chain to find it.
    tail: Mutex<PageId>,
}

impl HeapFile {
    /// Create a fresh heap file (allocates and initializes its first page).
    pub fn create(pool: &BufferPool) -> Result<HeapFile, StorageError> {
        let first = pool.allocate()?;
        let mut page = pool.fetch_write(first)?;
        SlottedPage::init(&mut page);
        Ok(HeapFile {
            first,
            tail: Mutex::new(first),
        })
    }

    /// Reopen a heap file by its first page (from the catalog).
    pub fn open(first: PageId) -> HeapFile {
        HeapFile {
            first,
            tail: Mutex::new(NO_PAGE),
        }
    }

    /// The first page (persisted in the catalog).
    pub fn first_page(&self) -> PageId {
        self.first
    }

    /// Append a tuple to the tail page, growing the chain when it is
    /// full. Appends to one heap serialize on the tail.
    pub fn insert(&self, pool: &BufferPool, tuple: &[u8]) -> Result<Rid, StorageError> {
        if tuple.len() > MAX_TUPLE {
            return Err(StorageError::TupleTooLarge {
                size: tuple.len(),
                max: MAX_TUPLE,
            });
        }
        let mut tail = self.tail.lock();
        if *tail == NO_PAGE {
            *tail = walk_chain(pool, self.first)?.1;
        }
        loop {
            let mut page = pool.fetch_write(*tail)?;
            let mut sp = SlottedPage::new(&mut page);
            if sp.next() != NO_PAGE {
                // Another handle grew the chain; catch up.
                *tail = sp.next();
                continue;
            }
            if let Some(slot) = sp.insert(tuple) {
                return Ok(Rid { page: *tail, slot });
            }
            // Grow the chain. The new page is initialized and filled
            // before it is linked, so a scan that follows the link
            // always finds a valid page.
            let new_pid = pool.allocate()?;
            let mut new_page = pool.fetch_write(new_pid)?;
            let slot = SlottedPage::init(&mut new_page)
                .insert(tuple)
                .expect("a fresh page holds any tuple up to MAX_TUPLE");
            drop(new_page);
            sp.set_next(new_pid);
            *tail = new_pid;
            return Ok(Rid {
                page: new_pid,
                slot,
            });
        }
    }

    /// Encode `row` against `schema` and append it. Blob values stay
    /// inline while the encoded row fits in one page ([`MAX_TUPLE`]); a
    /// row that would not fit first moves its inline blobs to overflow
    /// chains ([`BlobStore`]), PostgreSQL's TOAST rule. A row too large
    /// even then is refused with [`StorageError::TupleTooLarge`].
    pub fn insert_row(
        &self,
        pool: &BufferPool,
        schema: &Schema,
        row: &Row,
    ) -> Result<Rid, StorageError> {
        let bytes = encode_row(schema, row)?;
        if bytes.len() <= MAX_TUPLE {
            return self.insert(pool, &bytes);
        }
        let mut spilled = Vec::with_capacity(row.len());
        for value in row {
            spilled.push(match value {
                Value::InlineBlob(bytes) => Value::Blob(BlobStore::put(pool, bytes)?),
                other => other.clone(),
            });
        }
        self.insert(pool, &encode_row(schema, &spilled)?)
    }

    /// Fetch a tuple by RID.
    pub fn get(&self, pool: &BufferPool, rid: Rid) -> Result<Vec<u8>, StorageError> {
        SlottedPage::view(pool.fetch_read(rid.page)?)
            .get(rid.slot)
            .map(|b| b.to_vec())
            .map_err(|_| StorageError::TupleNotFound {
                page: rid.page,
                slot: rid.slot,
            })
    }

    /// Delete a tuple by RID (tombstone).
    pub fn delete(&self, pool: &BufferPool, rid: Rid) -> Result<(), StorageError> {
        let mut page = pool.fetch_write(rid.page)?;
        let mut sp = SlottedPage::new(&mut page);
        sp.delete(rid.slot)
            .map_err(|_| StorageError::TupleNotFound {
                page: rid.page,
                slot: rid.slot,
            })
    }

    /// Visit every tuple in chain order with bytes borrowed straight from
    /// the read-latched page: no copy, no per-row `Vec`. `f` runs while
    /// the page's read latch is held, so it must not write to the pool
    /// (reading other pages is fine), and an append to this page waits
    /// until `f` is done with it.
    pub fn for_each_row<E: From<StorageError>>(
        &self,
        pool: &BufferPool,
        mut f: impl FnMut(Rid, &[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let pages = self.pages(pool);
        while let Some(page) = pages.claim()? {
            for (rid, bytes) in page.rows() {
                f(rid, bytes)?;
            }
        }
        Ok(())
    }

    /// A cursor handing out this heap's pages in chain order (see
    /// [`ChainCursor`]).
    pub fn pages<'p>(&self, pool: &'p BufferPool) -> ChainCursor<'p> {
        ChainCursor::new(pool, self.first)
    }

    /// Full scan in chain order. Tuples are copied out page by page, so
    /// the iterator holds no page pins between steps.
    pub fn scan<'p>(&self, pool: &'p BufferPool) -> HeapScan<'p> {
        HeapScan {
            pages: self.pages(pool),
            buffer: Vec::new().into_iter(),
        }
    }
}

/// Hands out the pages of one page chain, in chain order, to one reader
/// or to many workers sharing it: each page goes to exactly one
/// [`ChainCursor::claim`]. Every heap read walks its chain through one,
/// so a `next` pointer that loops ends the walk with
/// [`StorageError::CorruptPage`] (`"page chain cycle"`) after more hops
/// than the pool has pages, instead of spinning forever.
pub struct ChainCursor<'p> {
    pool: &'p BufferPool,
    state: Mutex<ChainState>,
}

struct ChainState {
    next: PageId,
    /// The last page handed out that holds a live row.
    last_with_rows: PageId,
    hops: u64,
    limit: u64,
}

impl<'p> ChainCursor<'p> {
    /// A cursor over the chain starting at `first` (`NO_PAGE`: empty).
    pub(crate) fn new(pool: &'p BufferPool, first: PageId) -> ChainCursor<'p> {
        ChainCursor {
            pool,
            state: Mutex::new(ChainState {
                next: first,
                last_with_rows: NO_PAGE,
                hops: 0,
                limit: pool.page_count() + 1,
            }),
        }
    }

    /// Claim the next page, read-latched; `None` once the chain (or a
    /// [`ChainCursor::stop`]ped cursor) is exhausted. After an error the
    /// cursor is exhausted too.
    pub fn claim(&self) -> Result<Option<ChainPage<'p>>, StorageError> {
        let mut st = self.state.lock();
        let pid = st.next;
        if pid == NO_PAGE {
            return Ok(None);
        }
        st.next = NO_PAGE;
        st.hops += 1;
        if st.hops > st.limit {
            // The chain may have grown since the walk began; only a walk
            // longer than the whole pool is a cycle.
            st.limit = self.pool.page_count() + 1;
            if st.hops > st.limit {
                return Err(StorageError::CorruptPage {
                    page: pid,
                    reason: "page chain cycle",
                });
            }
        }
        let page = SlottedPage::view(self.pool.fetch_read(pid)?);
        st.next = page.next();
        let prev = st.last_with_rows;
        if page.iter().next().is_some() {
            st.last_with_rows = pid;
        }
        Ok(Some(ChainPage {
            pool: self.pool,
            pid,
            prev,
            page,
        }))
    }

    /// Hand out no further pages (a worker failed; the others finish the
    /// page they hold and stop).
    pub fn stop(&self) {
        self.state.lock().next = NO_PAGE;
    }
}

/// One page claimed from a [`ChainCursor`], read-latched while it lives.
pub struct ChainPage<'p> {
    pool: &'p BufferPool,
    pid: PageId,
    /// The closest earlier page of the walk that holds a live row.
    prev: PageId,
    page: SlottedPage<PageRead>,
}

impl<'p> ChainPage<'p> {
    /// This page's id.
    pub fn id(&self) -> PageId {
        self.pid
    }

    /// Live rows in slot order, borrowed from the latched page.
    pub fn rows(&self) -> impl Iterator<Item = (Rid, &[u8])> {
        let page = self.pid;
        self.page
            .iter()
            .map(move |(slot, bytes)| (Rid { page, slot }, bytes))
    }

    /// Apply `f` to the row just before this page's first row in the walk
    /// (the last live row of the closest earlier page that has one);
    /// `None` at the walk's start.
    pub fn with_row_before<R>(
        &self,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>, StorageError> {
        if self.prev == NO_PAGE {
            return Ok(None);
        }
        let prev = SlottedPage::view(self.pool.fetch_read(self.prev)?);
        let row = prev.iter().next_back().map(|(_, bytes)| f(bytes));
        Ok(row)
    }

    /// A private cursor over the rest of the chain after this page.
    pub fn rest(&self) -> ChainCursor<'p> {
        ChainCursor::new(self.pool, self.page.next())
    }
}

/// Iterator over `(Rid, tuple bytes)` of a heap file.
pub struct HeapScan<'p> {
    pages: ChainCursor<'p>,
    buffer: std::vec::IntoIter<(Rid, Vec<u8>)>,
}

impl Iterator for HeapScan<'_> {
    type Item = Result<(Rid, Vec<u8>), StorageError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(item) = self.buffer.next() {
                return Some(Ok(item));
            }
            let page = match self.pages.claim() {
                Ok(page) => page?,
                Err(e) => return Some(Err(e)),
            };
            self.buffer = page
                .rows()
                .map(|(rid, t)| (rid, t.to_vec()))
                .collect::<Vec<_>>()
                .into_iter();
        }
    }
}

/// Walk a chain from `first` under read latches: `(pages, last page)`.
fn walk_chain(pool: &BufferPool, first: PageId) -> Result<(u64, PageId), StorageError> {
    let pages = ChainCursor::new(pool, first);
    let (mut n, mut last) = (0, first);
    while let Some(page) = pages.claim()? {
        n += 1;
        last = page.id();
    }
    Ok((n, last))
}

/// Number of pages a heap file occupies (walks the chain).
pub fn chain_length(pool: &BufferPool, first: PageId) -> Result<u64, StorageError> {
    if first == NO_PAGE {
        return Ok(0);
    }
    Ok(walk_chain(pool, first)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::disk::PAGE_SIZE;

    fn pool() -> BufferPool {
        BufferPool::new(Box::new(MemDisk::new()), 16)
    }

    #[test]
    fn insert_get_roundtrip() {
        let pool = pool();
        let heap = HeapFile::create(&pool).unwrap();
        let r1 = heap.insert(&pool, b"alpha").unwrap();
        let r2 = heap.insert(&pool, b"beta").unwrap();
        assert_eq!(heap.get(&pool, r1).unwrap(), b"alpha");
        assert_eq!(heap.get(&pool, r2).unwrap(), b"beta");
    }

    #[test]
    fn for_each_row_matches_scan() {
        let pool = pool();
        let heap = HeapFile::create(&pool).unwrap();
        for i in 0..120u32 {
            // Mixed sizes so rows cross page boundaries.
            let t = vec![i as u8; 40 + (i as usize % 500)];
            heap.insert(&pool, &t).unwrap();
        }
        let scanned: Vec<(Rid, Vec<u8>)> = heap
            .scan(&pool)
            .collect::<Result<_, StorageError>>()
            .unwrap();
        let mut visited = Vec::new();
        heap.for_each_row(&pool, |rid, bytes| -> Result<(), StorageError> {
            visited.push((rid, bytes.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(visited, scanned);
        // Early error stops the walk and surfaces through `E`.
        let mut seen = 0;
        let err = heap.for_each_row(&pool, |_, _| -> Result<(), StorageError> {
            seen += 1;
            if seen == 3 {
                Err(StorageError::SchemaMismatch("stop"))
            } else {
                Ok(())
            }
        });
        assert!(err.is_err());
        assert_eq!(seen, 3);
    }

    #[test]
    fn grows_across_pages_and_scans_in_order() {
        let pool = pool();
        let heap = HeapFile::create(&pool).unwrap();
        let tuple = vec![9u8; 1000];
        let n = 50; // 50 KB ≫ one page
        let mut rids = Vec::new();
        for i in 0..n {
            let mut t = tuple.clone();
            t[0] = i as u8;
            rids.push(heap.insert(&pool, &t).unwrap());
        }
        assert!(chain_length(&pool, heap.first_page()).unwrap() >= 7);
        let scanned: Vec<(Rid, Vec<u8>)> = heap.scan(&pool).collect::<Result<_, _>>().unwrap();
        assert_eq!(scanned.len(), n);
        for (i, (rid, t)) in scanned.iter().enumerate() {
            assert_eq!(*rid, rids[i]);
            assert_eq!(t[0], i as u8);
        }
    }

    #[test]
    fn delete_hides_from_scan_and_get() {
        let pool = pool();
        let heap = HeapFile::create(&pool).unwrap();
        let a = heap.insert(&pool, b"a").unwrap();
        let b = heap.insert(&pool, b"b").unwrap();
        heap.delete(&pool, a).unwrap();
        assert!(heap.get(&pool, a).is_err());
        let left: Vec<Vec<u8>> = heap.scan(&pool).map(|r| r.unwrap().1).collect();
        assert_eq!(left, vec![b"b".to_vec()]);
        assert_eq!(heap.get(&pool, b).unwrap(), b"b");
    }

    #[test]
    fn oversized_tuple_rejected() {
        let pool = pool();
        let heap = HeapFile::create(&pool).unwrap();
        let e = heap.insert(&pool, &vec![0u8; PAGE_SIZE]).unwrap_err();
        assert!(matches!(e, StorageError::TupleTooLarge { .. }));
    }

    #[test]
    fn reopen_by_first_page() {
        let pool = pool();
        let first;
        {
            let heap = HeapFile::create(&pool).unwrap();
            first = heap.first_page();
            heap.insert(&pool, b"persisted").unwrap();
        }
        let heap = HeapFile::open(first);
        let all: Vec<Vec<u8>> = heap.scan(&pool).map(|r| r.unwrap().1).collect();
        assert_eq!(all, vec![b"persisted".to_vec()]);
    }

    #[test]
    fn appends_go_to_the_tail_in_insert_order() {
        let pool = pool();
        let heap = HeapFile::create(&pool).unwrap();
        // Alternate large and small rows: first-fit would tuck the small
        // ones into earlier pages, a tail append never does.
        let mut expect = Vec::new();
        for i in 0..60u32 {
            let len = if i % 2 == 0 { 3000 } else { 10 };
            let t = vec![i as u8; len];
            heap.insert(&pool, &t).unwrap();
            expect.push(t);
        }
        let rows: Vec<(Rid, Vec<u8>)> = heap.scan(&pool).collect::<Result<_, _>>().unwrap();
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "RIDs ascend");
        assert_eq!(rows.into_iter().map(|r| r.1).collect::<Vec<_>>(), expect);
        // A reopened handle finds the tail once, then appends after it.
        let reopened = HeapFile::open(heap.first_page());
        let first = reopened.first_page();
        let before = pool.stats();
        reopened.insert(&pool, b"after reopen").unwrap();
        let walk = pool.stats().delta_since(before);
        let before = pool.stats();
        for _ in 0..20 {
            reopened.insert(&pool, b"more").unwrap();
        }
        let appends = pool.stats().delta_since(before);
        let pages = chain_length(&pool, first).unwrap();
        assert_eq!(walk.hits + walk.misses, pages + 1, "one walk + the tail");
        assert_eq!(appends.hits + appends.misses, 20, "one fetch per append");
        let last = reopened.scan(&pool).last().unwrap().unwrap().1;
        assert_eq!(last, b"more");
    }

    #[test]
    fn reads_never_dirty_a_page() {
        let pool = pool();
        let heap = HeapFile::create(&pool).unwrap();
        let mut rids = Vec::new();
        for i in 0..200u32 {
            rids.push(heap.insert(&pool, &[i as u8; 500]).unwrap());
        }
        pool.flush_all().unwrap();
        let before = pool.stats();
        assert_eq!(heap.scan(&pool).count(), 200);
        heap.for_each_row(&pool, |_, _| -> Result<(), StorageError> { Ok(()) })
            .unwrap();
        for rid in &rids {
            heap.get(&pool, *rid).unwrap();
        }
        chain_length(&pool, heap.first_page()).unwrap();
        pool.flush_all().unwrap();
        assert_eq!(pool.stats().delta_since(before).writebacks, 0);
    }

    #[test]
    fn insert_row_inlines_up_to_max_tuple_then_overflows() {
        use crate::blob::BlobRef;
        use crate::row::{decode_row, ColumnType, RowReader};
        let pool = pool();
        let heap = HeapFile::create(&pool).unwrap();
        let schema = Schema::new(&[("k", ColumnType::Int), ("b", ColumnType::Blob)]);
        // Row = 8-byte key + 1-byte tag + 4-byte length + blob.
        let fits = MAX_TUPLE - 13;
        for (len, inline) in [(0, true), (fits, true), (fits + 1, false), (40_000, false)] {
            let blob: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let row = vec![Value::Int(len as i64), Value::InlineBlob(blob.clone())];
            let bytes = heap
                .get(&pool, heap.insert_row(&pool, &schema, &row).unwrap())
                .unwrap();
            if inline {
                assert_eq!(bytes.len(), 13 + len, "len {len}");
            }
            let mut r = RowReader::new(&schema, &bytes);
            assert_eq!(r.int().unwrap(), len as i64);
            let got = r.blob().unwrap();
            r.finish().unwrap();
            assert_eq!(matches!(got, BlobRef::Inline(_)), inline, "len {len}");
            assert_eq!(got.to_vec(&pool).unwrap(), blob, "len {len}");
            // decode_row sees the same form and bytes.
            let decoded = decode_row(&schema, &bytes).unwrap();
            match got {
                BlobRef::Inline(b) => assert_eq!(decoded[1], Value::InlineBlob(b.to_vec())),
                BlobRef::Overflow(pid) => assert_eq!(decoded[1], Value::Blob(pid)),
            }
        }
        // Rows too large even without their blobs are refused.
        let wide = Schema::new(&[("t", ColumnType::Text), ("b", ColumnType::Blob)]);
        let row = vec![
            Value::Text("x".repeat(MAX_TUPLE)),
            Value::InlineBlob(vec![1]),
        ];
        assert!(matches!(
            heap.insert_row(&pool, &wide, &row),
            Err(StorageError::TupleTooLarge { .. })
        ));
    }

    /// A heap of 60 rows of 1000 bytes (several pages) whose last page
    /// points back at its first.
    fn looping_heap(pool: &BufferPool) -> HeapFile {
        let heap = HeapFile::create(pool).unwrap();
        for i in 0..60u8 {
            heap.insert(pool, &[i; 1000]).unwrap();
        }
        let (pages, last) = walk_chain(pool, heap.first_page()).unwrap();
        assert!(pages >= 3);
        SlottedPage::new(&mut pool.fetch_write(last).unwrap()).set_next(heap.first_page());
        heap
    }

    fn is_cycle(e: &StorageError) -> bool {
        matches!(
            e,
            StorageError::CorruptPage {
                reason: "page chain cycle",
                ..
            }
        )
    }

    #[test]
    fn a_looping_chain_ends_every_walk_with_a_typed_error() {
        let pool = pool();
        let heap = looping_heap(&pool);
        let err = heap
            .for_each_row(&pool, |_, _| -> Result<(), StorageError> { Ok(()) })
            .unwrap_err();
        assert!(is_cycle(&err), "for_each_row: {err}");
        let mut scan = heap.scan(&pool);
        let err = scan.find_map(Result::err).expect("scan ends in an error");
        assert!(is_cycle(&err), "scan: {err}");
        assert!(scan.next().is_none(), "a failed scan stays done");
        assert!(is_cycle(
            &chain_length(&pool, heap.first_page()).unwrap_err()
        ));
        // Workers sharing one cursor: exactly one sees the error, and the
        // cursor hands out nothing after it.
        let pages = heap.pages(&pool);
        let errors: Vec<StorageError> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| loop {
                        match pages.claim() {
                            Ok(Some(_)) => continue,
                            Ok(None) => return None,
                            Err(e) => return Some(e),
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .filter_map(|w| w.join().unwrap())
                .collect()
        });
        assert_eq!(errors.len(), 1);
        assert!(is_cycle(&errors[0]));
        assert!(pages.claim().unwrap().is_none());
    }

    #[test]
    fn shared_cursor_hands_out_each_page_once() {
        let pool = pool();
        let heap = HeapFile::create(&pool).unwrap();
        for i in 0..60u8 {
            heap.insert(&pool, &[i; 1000]).unwrap();
        }
        let pages = heap.pages(&pool);
        let mut seen: Vec<(Rid, u8)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        let mut rows = Vec::new();
                        while let Some(page) = pages.claim().unwrap() {
                            rows.extend(page.rows().map(|(rid, t)| (rid, t[0])));
                        }
                        rows
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        seen.sort();
        let scanned: Vec<(Rid, u8)> = heap
            .scan(&pool)
            .map(|r| r.unwrap())
            .map(|(rid, t)| (rid, t[0]))
            .collect();
        assert_eq!(seen, scanned);
    }

    #[test]
    fn a_page_knows_the_row_before_it_and_the_rest_of_the_chain() {
        let pool = pool();
        let heap = HeapFile::create(&pool).unwrap();
        for i in 0..60u8 {
            heap.insert(&pool, &[i; 1000]).unwrap();
        }
        let pages = heap.pages(&pool);
        let first = pages.claim().unwrap().unwrap();
        assert_eq!(first.with_row_before(|r| r[0]).unwrap(), None);
        let last_of_first = first.rows().last().unwrap().1[0];
        drop(first);
        let second = pages.claim().unwrap().unwrap();
        assert_eq!(
            second.with_row_before(|r| r[0]).unwrap(),
            Some(last_of_first)
        );
        // The rest of the chain after the second page holds exactly the
        // rows the shared cursor has not handed out yet.
        let rest = second.rest();
        let mut ahead = Vec::new();
        while let Some(page) = rest.claim().unwrap() {
            ahead.extend(page.rows().map(|(_, t)| t[0]));
        }
        let mut remaining = Vec::new();
        while let Some(page) = pages.claim().unwrap() {
            remaining.extend(page.rows().map(|(_, t)| t[0]));
        }
        assert!(!ahead.is_empty());
        assert_eq!(ahead, remaining);
    }

    #[test]
    fn rid_u64_roundtrip() {
        let rid = Rid {
            page: 123_456,
            slot: 789,
        };
        assert_eq!(Rid::from_u64(rid.to_u64()), rid);
    }

    #[test]
    fn scan_of_empty_heap_is_empty() {
        let pool = pool();
        let heap = HeapFile::create(&pool).unwrap();
        assert_eq!(heap.scan(&pool).count(), 0);
    }
}
