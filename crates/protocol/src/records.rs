//! The record table: what the server keeps of each enrollment *besides
//! its index row*, in four flat parts and no per-record allocation.
//!
//! * a **byte arena** of fixed-size chunks holding each record as one
//!   block, `len(id) ‖ len(key) ‖ len(tag) ‖ len(seed) ‖ id ‖ public
//!   key ‖ tag ‖ seed ‖ patches`, appended at the tail of the last
//!   chunk. A length is one byte below 255 and `0xff ‖ u32` otherwise,
//!   so a block at the paper's parameters is its payload and four bytes,
//!   and one rule spells every length — `fe_core::codec::put_len`, the
//!   rule a version-2 record row on disk spells its lengths with too. A
//!   chunk is allocated once at its full capacity and never
//!   reallocated, so growth never copies and never leaves a freed
//!   doubling behind; a block never straddles two chunks (one larger
//!   than [`CHUNK`] gets a chunk of its own);
//! * `starts`, the first slot of each chunk, so a slot's chunk is a
//!   binary search of one `u32` per MiB of records;
//! * `slots`, one `u64` per record slot: a dead bit, 43 bits of the id's
//!   keyed hash, and where in its chunk the slot's block starts;
//! * an open-addressed **id table** of `u32` entries, each a slot number
//!   in its low bits under as many of those 43 hash bits as the slot
//!   count leaves free. A lookup passes over the other ids of its run
//!   reading nothing but the table, and compares an id's bytes, where
//!   they sit in the arena, only after all 43 bits agree.
//!
//! **An id is hashed once**, when it is looked up: the slot word keeps
//! every hash bit the table uses, so growth, `reserve`, `compact` and a
//! revoke's backward shift re-file entries from the slot words alone,
//! never re-hashing an id or reading the arena ([`id_hashes`] counts).
//!
//! **Arena order is slot order is enrollment order.** A block therefore
//! ends where the next slot's block starts (or at its chunk's fill), and
//! [`RecordTable::compact`] slides live blocks down in one ascending
//! pass. Revocation zeroes a block at once — the stored helper data is
//! gone when `revoke` returns — but its bytes, like its slot and its
//! index row, are reclaimed by `compact`.

use crate::messages::{EnrollmentRecord, WireHelper};
use fe_core::codec::{len_bytes, peek_len, put_len, unzigzag, zigzag};
use std::cell::Cell;
use std::hash::{BuildHasher, RandomState};
use std::ops::Range;

const CHUNK_BITS: u32 = 20;
/// Bytes of one arena chunk.
pub(crate) const CHUNK: usize = 1 << CHUNK_BITS;
/// Set in a slot whose record was revoked. The slot keeps its block's
/// offset, which is where the block before it ends.
const DEAD: u64 = 1 << 63;
/// Bits of an id's keyed hash a slot word keeps: all the word has left
/// beside [`DEAD`] and an offset in a chunk.
const HASH_BITS: u32 = 43;
/// The bits of a slot word that hold its id's kept hash.
const HASH: u64 = ((1 << HASH_BITS) - 1) << CHUNK_BITS;
/// The bits of a slot word that say where in its chunk its block starts.
const OFFSET: u64 = CHUNK as u64 - 1;
/// An id-table entry naming no slot. A live entry's slot bits are
/// never all ones ([`RecordTable::width`]), so no fingerprint makes one.
const EMPTY: u32 = u32::MAX;
/// Entries of the smallest id table.
const MIN_TABLE: usize = 4;

thread_local! {
    static ID_HASHES: Cell<u64> = const { Cell::new(0) };
}

/// Keyed hashes of user ids the calling thread's record tables have
/// computed so far: one per lookup — an enroll's vacancy probe, a
/// revoke, `is_enrolled` — and none when an id table grows, compacts or
/// shifts a run back after a revoke, which re-file entries from the
/// hash bits each slot keeps. Subtract two readings to count one call.
pub fn id_hashes() -> u64 {
    ID_HASHES.with(Cell::get)
}

/// The kept bits of a slot word's hash.
fn kept_hash(word: u64) -> u64 {
    (word & HASH) >> CHUNK_BITS
}

/// Reads the length [`put_len`] wrote at the front of `bytes`, and
/// steps past it.
fn get_len(bytes: &mut &[u8]) -> u32 {
    let (len, n) = peek_len(bytes).expect("the table wrote this length");
    *bytes = &bytes[n..];
    len
}

/// A patch's value, `enrolled − row` mod 2⁶⁴ zigzagged: a difference of
/// either sign that is small in magnitude is a small number.
fn patch(enrolled: i64, row: i64) -> u64 {
    zigzag(enrolled.wrapping_sub(row))
}

/// Bytes of the LEB128 form of `z`, seven bits a byte.
fn varint_bytes(z: u64) -> usize {
    (u64::BITS - z.leading_zeros()).max(1).div_ceil(7) as usize
}

fn put_varint(out: &mut Vec<u8>, mut z: u64) {
    while z >= 0x80 {
        out.push(z as u8 | 0x80);
        z >>= 7;
    }
    out.push(z as u8);
}

/// Reads a [`patch`] value [`put_varint`] wrote at the front of
/// `bytes`, steps past it and returns the difference it encodes.
fn get_delta(bytes: &mut &[u8]) -> i64 {
    let last = bytes.iter().position(|&b| b < 0x80).expect("a varint ends");
    let z = (bytes[..=last].iter().rev()).fold(0, |z, &b| z << 7 | u64::from(b & 0x7f));
    *bytes = &bytes[last + 1..];
    unzigzag(z)
}

/// One stored record, borrowed from the arena.
///
/// The index stores canonical ring residues (`−ka/2` folds to `+ka/2`,
/// out-of-range values reduce), but the robust sketch's tag is
/// `H(x ‖ s)` over the sketch *as sent* — `Rep` on a helper rebuilt
/// from canonical values alone fails its tag check. So every coordinate
/// whose stored cell differs from the enrolled value is patched: its
/// dimension, under the block's length rule, then the [`patch`]
/// difference from the row in LEB128 — three bytes for the common
/// `−ka/2`, at most fifteen for any `i64`. A record whose sketch
/// round-trips through the index (twelve in thirteen at the paper's
/// parameters) carries no patch bytes at all.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StoredRecord<'a> {
    /// `id ‖ public key ‖ tag ‖ seed ‖ patches`: the block past its four
    /// lengths. The key stays bytes as received: only
    /// `finish_identification` needs it parsed, and one signature
    /// verification dwarfs the parse.
    bytes: &'a [u8],
    /// End offsets in `bytes` of the id, key, tag and seed.
    ends: [u32; 4],
}

impl<'a> StoredRecord<'a> {
    /// The record whose block (four lengths, then payload) is `block`.
    fn view(mut block: &'a [u8]) -> Self {
        let mut end = 0;
        let ends = [(); 4].map(|()| {
            end += get_len(&mut block);
            end
        });
        StoredRecord { bytes: block, ends }
    }

    fn field(&self, i: usize) -> &'a [u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start as usize..self.ends[i] as usize]
    }

    pub(crate) fn id(&self) -> &'a str {
        std::str::from_utf8(self.field(0)).expect("packed from a String")
    }

    pub(crate) fn public_key(&self) -> &'a [u8] {
        self.field(1)
    }

    /// Completes `helper`, whose sketch is this record's index row, to
    /// the helper data that was enrolled: the patched coordinates over
    /// the row, then tag and seed.
    pub(crate) fn restore(&self, helper: &mut WireHelper) {
        let mut patches = &self.bytes[self.ends[3] as usize..];
        while !patches.is_empty() {
            let value = &mut helper.sketch.inner[get_len(&mut patches) as usize];
            *value = value.wrapping_add(get_delta(&mut patches));
        }
        helper.sketch.tag.clear();
        helper.sketch.tag.extend_from_slice(self.field(2));
        helper.seed.clear();
        helper.seed.extend_from_slice(self.field(3));
    }
}

/// Proof that an id was absent when the table was probed: the id's
/// kept hash, which [`RecordTable::push`] files the new slot under
/// without hashing or comparing again. Good until that id is enrolled.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Vacancy(u64);

/// Where an enrolled id is filed: its id-table position and its slot.
/// [`RecordTable::revoke`] removes the entry without looking the id up
/// again. Good until the table next changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Located {
    at: usize,
    slot: usize,
}

/// Slot-number bits of an id-table entry in a table of `slots` slots:
/// one more than their bit width, so at least as many slots again fit
/// before the entries must widen; all 32 from 2³¹ slots on.
fn width_for(slots: usize) -> u32 {
    (usize::BITS - slots.leading_zeros() + 1).min(u32::BITS)
}

/// See the module docs.
pub(crate) struct RecordTable {
    /// Each allocated once, at `CHUNK` bytes of capacity (or one
    /// oversized block's length); `len` is the fill.
    chunks: Vec<Vec<u8>>,
    /// The first slot of each chunk, ascending; every chunk holds one
    /// slot at least.
    starts: Vec<u32>,
    /// `kept hash << CHUNK_BITS | offset` of each slot's block, under
    /// [`DEAD`].
    slots: Vec<u64>,
    /// Power-of-two capacity, at most 7/8 full, linear probing; an entry
    /// is [`EMPTY`] or a live slot number in its low `width` bits under
    /// the top `32 − width` of its id's kept hash bits, the fingerprint.
    /// Deletion shifts the rest of the run back, so churn leaves no
    /// tombstones.
    table: Vec<u32>,
    /// [`width_for`] the slot count (or reservation) at the last
    /// rebuild; [`RecordTable::push`] rebuilds before a slot number
    /// would fill all of them.
    width: u32,
    live: usize,
    /// Bytes of the revoked blocks `compact` has not yet reclaimed.
    dead_bytes: usize,
    /// Keyed SipHash, one key per table: ids arrive over the wire.
    hasher: RandomState,
}

/// Counts, not contents: the arena is the whole population's records.
impl std::fmt::Debug for RecordTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordTable")
            .field("live", &self.live)
            .field("slots", &self.slots.len())
            .field("chunks", &self.chunks.len())
            .field("dead_bytes", &self.dead_bytes)
            .finish_non_exhaustive()
    }
}

impl RecordTable {
    pub(crate) fn new() -> Self {
        RecordTable {
            chunks: Vec::new(),
            starts: Vec::new(),
            slots: Vec::new(),
            table: Vec::new(),
            width: width_for(0),
            live: 0,
            dead_bytes: 0,
            hasher: RandomState::new(),
        }
    }

    /// Live records.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Slots held, live and revoked.
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Whether every slot number the id table can name is taken.
    pub(crate) fn is_full(&self) -> bool {
        self.slots.len() >= EMPTY as usize
    }

    /// Exact heap bytes held: slot vector, arena chunks (and the vector
    /// of them), first-slot list, id table.
    pub(crate) fn heap_bytes(&self) -> usize {
        let arena: usize = self.chunks.iter().map(Vec::capacity).sum();
        self.slots.capacity() * 8
            + arena
            + self.chunks.capacity() * std::mem::size_of::<Vec<u8>>()
            + self.starts.capacity() * 4
            + self.table.capacity() * 4
    }

    /// Arena bytes of revoked blocks awaiting [`RecordTable::compact`].
    pub(crate) fn dead_bytes(&self) -> usize {
        self.dead_bytes
    }

    /// Whether `record` packs: the sum of its field lengths (so each
    /// field, and each end offset a view sums them into) and each
    /// dimension a patch can name fit a `u32`.
    pub(crate) fn fits(record: &EnrollmentRecord) -> bool {
        let h = &record.helper;
        let fields = record.id.len() + record.public_key.len() + h.sketch.tag.len() + h.seed.len();
        u32::try_from(fields).is_ok() && u32::try_from(h.sketch.inner.len()).is_ok()
    }

    /// One past the last slot of `chunk`.
    fn chunk_end(&self, chunk: usize) -> usize {
        (self.starts.get(chunk + 1)).map_or(self.slots.len(), |&next| next as usize)
    }

    /// The byte range of `slot`'s block, live or revoked, in `chunk`,
    /// the chunk that holds it.
    fn range(&self, chunk: usize, slot: usize) -> Range<usize> {
        let start = (self.slots[slot] & OFFSET) as usize;
        let end = if slot + 1 < self.chunk_end(chunk) {
            (self.slots[slot + 1] & OFFSET) as usize
        } else {
            self.chunks[chunk].len()
        };
        start..end
    }

    /// The chunk and byte range of `slot`'s block, live or revoked.
    fn extent(&self, slot: usize) -> (usize, Range<usize>) {
        let chunk = self.starts.partition_point(|&first| first as usize <= slot) - 1;
        (chunk, self.range(chunk, slot))
    }

    /// The record in `slot`; `None` for revoked and out-of-range slots.
    pub(crate) fn get(&self, slot: usize) -> Option<StoredRecord<'_>> {
        if self.slots.get(slot)? & DEAD != 0 {
            return None;
        }
        let (chunk, range) = self.extent(slot);
        Some(StoredRecord::view(&self.chunks[chunk][range]))
    }

    /// The live records and their slots, in slot order: a walk that
    /// steps through `starts` beside the slots instead of searching it
    /// for each.
    pub(crate) fn live(&self) -> Live<'_> {
        Live {
            table: self,
            slot: 0,
            chunk: 0,
        }
    }

    /// The id's keyed hash, cut to the bits a slot word keeps.
    fn hash_id(&self, id: &[u8]) -> u64 {
        ID_HASHES.with(|n| n.set(n.get() + 1));
        self.hasher.hash_one(id) & (HASH >> CHUNK_BITS)
    }

    /// The bits of an id-table entry that hold its slot number.
    fn slot_bits(&self) -> u32 {
        u32::MAX >> (u32::BITS - self.width)
    }

    /// The id-table entry that files `slot` under the kept `hash`: the
    /// hash's top `32 − width` bits above the slot number. Home is its
    /// low bits, fewer than the `11 + width` below the fingerprint (a
    /// table's capacity stays below `2^(width + 2)`), so the two are
    /// independent.
    fn entry(&self, hash: u64, slot: u32) -> u32 {
        (hash >> (HASH_BITS - u32::BITS)) as u32 & !self.slot_bits() | slot
    }

    /// The id in `slot`, which the id table names, so it is live.
    fn id_bytes(&self, slot: usize) -> &[u8] {
        let record = self.get(slot).expect("the id table names live slots");
        record.field(0)
    }

    /// The kept hash of the id in the slot an id-table entry names.
    fn hash_of(&self, entry: u32) -> u64 {
        kept_hash(self.slots[(entry & self.slot_bits()) as usize])
    }

    /// Position and slot of each entry of `hash`'s run whose fingerprint
    /// is `hash`'s, up to the empty entry that ends the run: the only
    /// slots whose word a lookup of an id with this hash reads.
    fn candidates(&self, hash: u64) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (mask, slot_bits) = (self.table.len().wrapping_sub(1), self.slot_bits());
        let fingerprint = self.entry(hash, 0);
        let mut at = hash as usize & mask;
        std::iter::from_fn(move || loop {
            // An empty table has no entry at any position.
            let entry = *self.table.get(at)?;
            if entry == EMPTY {
                return None;
            }
            let here = at;
            at = (at + 1) & mask;
            if entry & !slot_bits == fingerprint {
                return Some((here, (entry & slot_bits) as usize));
            }
        })
    }

    /// Where `id` is filed, or the hash to file it under: the one place
    /// an id is hashed. Its bytes are compared only where all the kept
    /// hash bits agree.
    fn locate(&self, id: &[u8]) -> Result<Located, Vacancy> {
        let hash = self.hash_id(id);
        self.candidates(hash)
            .find(|&(_, slot)| kept_hash(self.slots[slot]) == hash && self.id_bytes(slot) == id)
            .map(|(at, slot)| Located { at, slot })
            .ok_or(Vacancy(hash))
    }

    /// Where `id` is filed, for a following [`RecordTable::revoke`];
    /// `None` when it is not stored.
    pub(crate) fn located(&self, id: &str) -> Option<Located> {
        self.locate(id.as_bytes()).ok()
    }

    /// The slot `id` lives in.
    pub(crate) fn find(&self, id: &str) -> Option<usize> {
        self.located(id).map(|located| located.slot)
    }

    /// Find-or-vacant: `None` when `id` is stored, else the vacancy a
    /// following [`RecordTable::push`] of that id consumes.
    pub(crate) fn probe(&self, id: &str) -> Option<Vacancy> {
        self.locate(id.as_bytes()).err()
    }

    /// Smallest id-table capacity that holds `entries` at 7/8 load.
    fn table_capacity(entries: usize) -> usize {
        let mut capacity = MIN_TABLE;
        while entries * 8 > capacity * 7 {
            capacity *= 2;
        }
        capacity
    }

    /// Files `slot` under `hash`; the id is known to be absent, so the
    /// first empty entry of its run is its place.
    fn file(&mut self, hash: u64, slot: u32) {
        let mask = self.table.len() - 1;
        let mut at = hash as usize & mask;
        while self.table[at] != EMPTY {
            at = (at + 1) & mask;
        }
        self.table[at] = self.entry(hash, slot);
    }

    /// Replaces the id table by one of `capacity` entries of `width`
    /// slot bits: one sequential read of the slot words.
    fn rebuild_table(&mut self, capacity: usize, width: u32) {
        self.table = vec![EMPTY; capacity];
        self.width = width;
        for slot in 0..self.slots.len() {
            let word = self.slots[slot];
            if word & DEAD == 0 {
                self.file(kept_hash(word), slot as u32);
            }
        }
    }

    /// Room for `additional` more records in the slot vector and the id
    /// table, entries wide enough for every slot number among them (the
    /// arena grows a chunk at a time either way).
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
        let capacity = Self::table_capacity(self.live + additional).max(self.table.len());
        let width = width_for(self.slots.len() + additional);
        if capacity > self.table.len() || width > self.width {
            self.rebuild_table(capacity, width);
        }
    }

    /// Appends `record`, whose sketch the index holds as `row` (`None`:
    /// as it is) and whose id `vacancy` proved absent; returns its slot.
    pub(crate) fn push(
        &mut self,
        vacancy: Vacancy,
        record: &EnrollmentRecord,
        row: Option<&[i64]>,
    ) -> usize {
        let helper = &record.helper;
        let fields: [&[u8]; 4] = [
            record.id.as_bytes(),
            &record.public_key,
            &helper.sketch.tag,
            &helper.seed,
        ];
        // Twelve sketches in thirteen are their own row at the paper's
        // parameters, and the coordinates zipped with no row yield no
        // patch.
        let inner = &helper.sketch.inner;
        let patches = (inner.iter().zip(row.unwrap_or_default()).enumerate())
            .filter(|(_, (want, got))| want != got)
            .map(|(dim, (&want, &got))| (dim, patch(want, got)));
        let mut len: usize = fields.iter().map(|f| len_bytes(f.len()) + f.len()).sum();
        len += (patches.clone())
            .map(|(dim, z)| len_bytes(dim) + varint_bytes(z))
            .sum::<usize>();

        assert!(!self.is_full(), "validate_enroll refuses a full table");
        let slot = self.slots.len() as u32;
        if (self.chunks.last()).is_none_or(|last| last.len() + len > CHUNK) {
            self.chunks.push(Vec::with_capacity(len.max(CHUNK)));
            self.starts.push(slot);
        }
        let chunk = self.chunks.last_mut().expect("a chunk was just ensured");
        // A block is never empty and ends within its chunk (or is the
        // chunk), so it starts below `CHUNK`.
        let start = chunk.len();
        self.slots.push(vacancy.0 << CHUNK_BITS | start as u64);
        for field in fields {
            put_len(chunk, field.len());
        }
        for field in fields {
            chunk.extend_from_slice(field);
        }
        for (dim, z) in patches {
            put_len(chunk, dim);
            put_varint(chunk, z);
        }
        debug_assert_eq!(chunk.len() - start, len, "the block is the length reserved");

        // Too full, or the slot number would fill every slot bit: the
        // rebuild files the new slot, which is live already.
        if (self.live + 1) * 8 > self.table.len() * 7 || slot >= self.slot_bits() {
            let capacity = Self::table_capacity(self.live + 1).max(self.table.len());
            self.rebuild_table(capacity, width_for(self.slots.len()));
        } else {
            self.file(vacancy.0, slot);
        }
        self.live += 1;
        slot as usize
    }

    /// Revokes the id filed at `located`: its slot is marked, its block
    /// zeroed and its table entry removed. Returns the slot.
    pub(crate) fn revoke(&mut self, located: Located) -> usize {
        let Located { at, slot } = located;
        assert!(
            self.table[at] & self.slot_bits() == slot as u32 && self.slots[slot] & DEAD == 0,
            "a located entry is current until the table changes"
        );
        // Backward-shift deletion: each later entry of the run moves
        // into the hole unless that would put it before its home.
        let mask = self.table.len() - 1;
        let (mut hole, mut next) = (at, (at + 1) & mask);
        while self.table[next] != EMPTY {
            let home = self.hash_of(self.table[next]) as usize & mask;
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(hole) & mask) {
                self.table[hole] = self.table[next];
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.table[hole] = EMPTY;

        let (chunk, range) = self.extent(slot);
        self.dead_bytes += range.len();
        self.chunks[chunk][range].fill(0);
        self.slots[slot] |= DEAD;
        self.live -= 1;
        slot
    }

    /// Ends the filling of `chunk` at `fill` bytes during
    /// [`RecordTable::compact`]: what lay beyond was moved down or was
    /// dead, and is zeroed so no second copy of a record outlives it.
    fn seal(&mut self, chunk: usize, fill: usize) {
        let chunk = &mut self.chunks[chunk];
        chunk[fill..].fill(0);
        chunk.truncate(fill);
        // Only a chunk that held an oversized block has more to give.
        chunk.shrink_to(fill.max(CHUNK));
    }

    /// Reclaims revoked slots and their bytes: live blocks slide down
    /// over dead ones in one ascending pass (chunk boundaries stay, a
    /// block still never straddles one), slots renumber densely —
    /// `renumbered(old, new)` is told each — emptied chunks are freed
    /// and the id table is rebuilt once.
    pub(crate) fn compact(&mut self, mut renumbered: impl FnMut(usize, usize)) {
        // Greedy placement of a subsequence never overtakes greedy
        // placement of the whole sequence, so the write cursor stays at
        // or below every block still to be read — and `starts[to]` is
        // rewritten only once the read cursor `from` no longer needs it.
        let (mut from, mut to, mut fill, mut kept) = (0usize, 0usize, 0usize, 0usize);
        for old in 0..self.slots.len() {
            while old >= self.chunk_end(from) {
                from += 1;
            }
            if self.slots[old] & DEAD != 0 {
                continue;
            }
            let range = self.range(from, old);
            let len = range.len();
            if fill > 0 && fill + len > CHUNK {
                self.seal(to, fill);
                (to, fill) = (to + 1, 0);
            }
            if fill == 0 {
                self.starts[to] = kept as u32;
            }
            if to == from {
                self.chunks[from].copy_within(range, fill);
            } else if len > CHUNK {
                // An oversized block is its chunk: move the chunk.
                self.chunks.swap(to, from);
            } else {
                let (low, high) = self.chunks.split_at_mut(from);
                let target = &mut low[to];
                if target.len() < fill + len {
                    target.resize(fill + len, 0);
                }
                target[fill..fill + len].copy_from_slice(&high[0][range]);
            }
            self.slots[kept] = self.slots[old] & HASH | fill as u64;
            fill += len;
            renumbered(old, kept);
            kept += 1;
        }
        if fill > 0 {
            self.seal(to, fill);
            to += 1;
        }
        self.chunks.truncate(to);
        self.chunks.shrink_to_fit();
        self.starts.truncate(to);
        self.starts.shrink_to_fit();
        self.slots.truncate(kept);
        self.slots.shrink_to_fit();
        self.dead_bytes = 0;
        self.rebuild_table(Self::table_capacity(self.live), width_for(self.live));
    }
}

/// [`RecordTable::live`]'s walk.
pub(crate) struct Live<'a> {
    table: &'a RecordTable,
    slot: usize,
    /// The chunk that holds `slot`, once `slot` is in range.
    chunk: usize,
}

impl<'a> Iterator for Live<'a> {
    type Item = (usize, StoredRecord<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let table = self.table;
        while self.slot < table.slots.len() {
            let slot = self.slot;
            self.slot += 1;
            while slot >= table.chunk_end(self.chunk) {
                self.chunk += 1;
            }
            if table.slots[slot] & DEAD == 0 {
                let block = &table.chunks[self.chunk][table.range(self.chunk, slot)];
                return Some((slot, StoredRecord::view(block)));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fe_core::RobustData;

    fn record(id: &str, fill: u8) -> EnrollmentRecord {
        EnrollmentRecord {
            id: id.to_string(),
            public_key: vec![fill; 24],
            helper: WireHelper {
                sketch: RobustData {
                    inner: vec![i64::from(fill), -200, 7],
                    tag: vec![fill ^ 0x55; 16],
                },
                seed: vec![fill ^ 0xaa; 16],
            },
        }
    }

    /// The row an index holds for `record`: it reads `-200` back as
    /// `200`, so every record above carries one patch.
    fn row_of(record: &EnrollmentRecord) -> Vec<i64> {
        let mut row = record.helper.sketch.inner.clone();
        row[1] = 200;
        row
    }

    /// Pushes `record` as a server does: probe, then file under the
    /// vacancy.
    fn push(table: &mut RecordTable, record: &EnrollmentRecord) -> usize {
        let vacancy = table.probe(&record.id).expect("id is new");
        table.push(vacancy, record, Some(&row_of(record)))
    }

    /// Revokes `id` as a server does: locate, then remove.
    fn revoke(table: &mut RecordTable, id: &str) -> Option<usize> {
        let located = table.located(id)?;
        Some(table.revoke(located))
    }

    /// The helper a server rebuilds from `slot` and `record`'s row.
    fn helper_of(table: &RecordTable, slot: usize, record: &EnrollmentRecord) -> WireHelper {
        let mut helper = WireHelper {
            sketch: RobustData {
                inner: row_of(record),
                tag: Vec::new(),
            },
            seed: Vec::new(),
        };
        table.get(slot).expect("live slot").restore(&mut helper);
        helper
    }

    /// Entries examined to find every stored id once: the mean probe
    /// length times the population.
    fn total_probe_length(table: &RecordTable) -> usize {
        let mask = table.table.len() - 1;
        let mut examined = 0usize;
        for (at, &slot) in table.table.iter().enumerate() {
            if slot != EMPTY {
                let home = table.hash_of(slot) as usize & mask;
                examined += (at.wrapping_sub(home) & mask) + 1;
            }
        }
        examined
    }

    #[test]
    fn lookups_growth_and_patches_round_trip() {
        let mut table = RecordTable::new();
        let records: Vec<_> = (0..200u8).map(|u| record(&format!("u{u}"), u)).collect();
        for (u, r) in records.iter().enumerate() {
            assert_eq!(push(&mut table, r), u);
            assert!(table.probe(&r.id).is_none(), "now a duplicate");
        }
        assert_eq!((table.len(), table.slots()), (200, 200));
        assert_eq!(table.table.len(), 256);
        for (u, r) in records.iter().enumerate() {
            assert_eq!(table.find(&r.id), Some(u));
            let stored = table.get(u).unwrap();
            assert_eq!((stored.id(), stored.public_key()), (&*r.id, &*r.public_key));
            assert_eq!(helper_of(&table, u, r), r.helper);
        }
        assert_eq!(table.find("u200"), None);
        assert_eq!(
            table.heap_bytes(),
            table.slots.capacity() * 8
                + CHUNK
                + table.chunks.capacity() * 24
                + table.starts.capacity() * 4
                + 256 * 4
        );
    }

    #[test]
    fn a_paper_parameter_block_is_its_payload_and_four_length_bytes() {
        // 11-byte id, 128-byte key, 32-byte tag and seed: 203 payload
        // bytes. A row of 200s reproduces the first sketch; the second
        // enrolled −ka/2 at ka = 400, a 3-byte patch.
        let mut r = record("user-000000", 1);
        r.public_key = vec![1; 128];
        r.helper.sketch = RobustData {
            inner: vec![200; 64],
            tag: vec![2; 32],
        };
        r.helper.seed = vec![3; 32];
        let mut table = RecordTable::new();
        let plain = push(&mut table, &r);
        r.id = "user-000001".into();
        r.helper.sketch.inner[1] = -200;
        let patched = push(&mut table, &r);
        assert_eq!(table.extent(plain).1.len(), 207);
        assert_eq!(table.extent(patched).1.len(), 210);
        assert_eq!(helper_of(&table, patched, &r), r.helper);
    }

    #[test]
    fn lengths_on_both_sides_of_the_escape_round_trip() {
        const LENS: [usize; 5] = [0, 254, 255, 256, 65_536];
        // Each field takes each length once, in a different record.
        let records: Vec<_> = (0..LENS.len())
            .map(|u| {
                let len = |field: usize| LENS[(u + field) % LENS.len()];
                let mut r = record(&"i".repeat(len(0)), u as u8);
                r.public_key = vec![u as u8; len(1)];
                r.helper.sketch.tag = vec![0x55; len(2)];
                r.helper.seed = vec![0xaa; len(3)];
                r
            })
            .collect();
        let check = |table: &RecordTable, live: &[&EnrollmentRecord]| {
            for (slot, r) in live.iter().enumerate() {
                let stored = table.get(slot).unwrap();
                assert_eq!((stored.id(), stored.public_key()), (&*r.id, &*r.public_key));
                assert_eq!(helper_of(table, slot, r), r.helper);
                // A length byte, or 0xff and four; the payload; a patch.
                let h = &r.helper;
                let lens = [
                    r.id.len(),
                    r.public_key.len(),
                    h.sketch.tag.len(),
                    h.seed.len(),
                ];
                let len: usize = lens.iter().map(|&l| l + if l < 255 { 1 } else { 5 }).sum();
                assert_eq!(table.extent(slot).1.len(), len + 3, "slot {slot}");
            }
        };
        let mut table = RecordTable::new();
        for r in &records {
            push(&mut table, r);
        }
        check(&table, &records.iter().collect::<Vec<_>>());
        revoke(&mut table, &records[0].id).unwrap();
        table.compact(|_, _| ());
        check(&table, &records[1..].iter().collect::<Vec<_>>());
    }

    #[test]
    fn churn_leaves_capacity_and_probe_length_where_they_started() {
        let mut table = RecordTable::new();
        for u in 0..100u8 {
            push(&mut table, &record(&format!("u{u}"), u));
        }
        let (capacity, before) = (table.table.len(), total_probe_length(&table));
        // 10× the population in revoke / re-enroll pairs, never
        // compacted, so the table is never rebuilt.
        for round in 0..1000usize {
            let id = format!("u{}", (round * 37) % 100);
            assert!(revoke(&mut table, &id).is_some());
            assert_eq!(table.find(&id), None);
            push(&mut table, &record(&id, round as u8));
            assert_eq!(table.len(), 100);
        }
        assert_eq!((table.slots(), table.table.len()), (1100, capacity));
        let entries = table.table.iter().filter(|&&e| e != EMPTY).count();
        assert_eq!(entries, 100, "no tombstones, no lost entries");
        for u in 0..100 {
            assert!(table.find(&format!("u{u}")).is_some());
        }
        // Linear probing fills the same entries whatever order the keys
        // went in, and backward shift leaves a table some insertion
        // order of the remaining keys builds: the same hundred ids cost
        // exactly the probes they cost at the start.
        assert_eq!(total_probe_length(&table), before);
    }

    #[test]
    fn backward_shift_keeps_every_run_reachable_across_the_wrap() {
        // At 4..16 entries every run wraps sooner or later: remove each
        // id in turn from small tables and look all the others up.
        for population in 1..=14u8 {
            for victim in 0..population {
                let mut table = RecordTable::new();
                for u in 0..population {
                    push(&mut table, &record(&format!("u{u}"), u));
                }
                assert_eq!(
                    revoke(&mut table, &format!("u{victim}")),
                    Some(victim as usize)
                );
                assert_eq!(revoke(&mut table, &format!("u{victim}")), None);
                for u in (0..population).filter(|&u| u != victim) {
                    assert_eq!(table.find(&format!("u{u}")), Some(u as usize));
                }
            }
        }
    }

    /// Slot words a lookup of `id` reads, walking its run as `locate`
    /// does: one per entry whose fingerprint agrees — every one of them
    /// when `id` is absent.
    fn slot_words_read(table: &RecordTable, id: &str) -> usize {
        table.candidates(table.hash_id(id.as_bytes())).count()
    }

    /// Entries a lookup of the absent `id` passes before its run ends:
    /// the slot words it read before entries carried fingerprints.
    fn entries_passed(table: &RecordTable, id: &str) -> usize {
        let mask = table.table.len().wrapping_sub(1);
        let home = table.hash_id(id.as_bytes()) as usize & mask;
        let run = (0..table.table.len()).map(|i| table.table[(home + i) & mask]);
        run.take_while(|&entry| entry != EMPTY).count()
    }

    #[test]
    fn a_vacancy_probe_reads_almost_no_slot_word() {
        const IDS: usize = 100_000;
        let mut table = RecordTable::new();
        let (mut read, mut passed) = (0, 0);
        for u in 0..IDS {
            let r = record(&format!("user-{u:06}"), u as u8);
            read += slot_words_read(&table, &r.id);
            passed += entries_passed(&table, &r.id);
            push(&mut table, &r);
        }
        let (read, passed) = (read as f64 / IDS as f64, passed as f64 / IDS as f64);
        assert!(read <= 0.01, "{read} slot words a vacancy probe");
        // Linear probing at up to 7/8 load passes about five entries a
        // probe here (5.2 in one run), and each was a slot word read
        // before entries carried fingerprints.
        assert!(passed >= 4.0, "{passed} entries passed a vacancy probe");
        for u in (0..IDS).step_by(997) {
            assert_eq!(table.find(&format!("user-{u:06}")), Some(u));
        }
    }

    /// Two ids of one length whose hashes agree on every bit `table`
    /// keeps: a birthday collision on 43 bits, found in constant memory
    /// by Floyd's cycle search over `v ↦ kept hash of "c{v}"` (about
    /// 10⁷ hashes).
    fn colliding_ids(table: &RecordTable) -> (String, String) {
        let id = |v: u64| format!("c{v:013}");
        let f = |v: u64| table.hash_id(id(v).as_bytes());
        (0..)
            .find_map(|start| {
                // The hare meets the tortoise on the cycle; walked on in
                // step from the start and from there, the two first map
                // to one value at the cycle's entry.
                let (mut slow, mut fast) = (f(start), f(f(start)));
                while slow != fast {
                    (slow, fast) = (f(slow), f(f(fast)));
                }
                let mut slow = start;
                while f(slow) != f(fast) {
                    (slow, fast) = (f(slow), f(fast));
                }
                // Equal only when `start` was on the cycle itself.
                (slow != fast).then(|| (id(slow), id(fast)))
            })
            .expect("a collision on 43 bits")
    }

    #[test]
    fn ids_agreeing_on_every_kept_hash_bit_are_told_apart_by_their_bytes() {
        // Home, fingerprint and the slot word's 43 bits spare every
        // comparison of bytes but the one that finds the id, so a lookup
        // that compared less would pass every other test: search this
        // table's keyed hash for two ids nothing but their bytes tells
        // apart.
        let mut table = RecordTable::new();
        let (a, b) = colliding_ids(&table);
        assert_eq!(table.hash_id(a.as_bytes()), table.hash_id(b.as_bytes()));
        assert_eq!(push(&mut table, &record(&a, 1)), 0);
        assert_eq!(table.find(&b), None);
        assert_eq!(push(&mut table, &record(&b, 2)), 1);
        assert_eq!(
            slot_words_read(&table, &b),
            2,
            "both entries match b's fingerprint"
        );
        assert_eq!((table.find(&a), table.find(&b)), (Some(0), Some(1)));
        assert_eq!(revoke(&mut table, &a), Some(0));
        assert_eq!((table.find(&a), table.find(&b)), (None, Some(1)));
    }

    #[test]
    fn churn_past_each_slot_width_rebuilds_and_keeps_every_run_reachable() {
        const LIVE: usize = 60;
        let id = |u: usize| format!("u{u}");
        let mut table = RecordTable::new();
        for u in 0..LIVE {
            push(&mut table, &record(&id(u), u as u8));
        }
        let capacity = table.table.len();
        // Every entry is where a lookup of its id arrives.
        let check = |table: &RecordTable| {
            let slot_bits = table.slot_bits();
            for (at, &entry) in table.table.iter().enumerate() {
                if entry != EMPTY {
                    let slot = (entry & slot_bits) as usize;
                    let stored = table.get(slot).expect("entries name live slots");
                    assert_eq!(table.located(stored.id()), Some(Located { at, slot }));
                }
            }
            for u in 0..LIVE {
                assert!(
                    table.find(&id(u)).is_some(),
                    "u{u} lost at {} bits",
                    table.width
                );
            }
        };
        // Revoke / re-enroll pairs, never compacted: the live count and
        // the capacity stay, the slot count climbs past 2^w − 1 again
        // and again, and each revoke shifts a run back over entries
        // refiled at the new width since they were first filed.
        let mut widths = vec![table.width];
        for round in 0..5_000usize {
            let u = (round * 37) % LIVE;
            assert!(revoke(&mut table, &id(u)).is_some());
            push(&mut table, &record(&id(u), round as u8));
            let before = widths[widths.len() - 1];
            if table.width != before {
                // Widened by the slot whose number fills `before` bits.
                assert_eq!(table.slots() - 1, (1 << before) - 1);
                widths.push(table.width);
                check(&table);
            }
        }
        assert_eq!(widths, [7, 9, 11, 13]);
        assert_eq!((table.len(), table.table.len()), (LIVE, capacity));
        check(&table);
    }

    #[test]
    fn revoke_leaves_no_byte_of_key_tag_or_seed_in_the_arena() {
        let contains = |table: &RecordTable, needle: &[u8]| {
            table
                .chunks
                .iter()
                .any(|chunk| chunk.windows(needle.len()).any(|w| w == needle))
        };
        let mut table = RecordTable::new();
        for u in 0..40u8 {
            push(&mut table, &record(&format!("u{u}"), u));
        }
        let gone = record("u17", 17);
        let secrets: [&[u8]; 3] = [&gone.public_key, &gone.helper.sketch.tag, &gone.helper.seed];
        assert!(secrets.iter().all(|s| contains(&table, s)));
        let bytes = table.extent(17).1.len();
        assert_eq!(revoke(&mut table, "u17"), Some(17));
        assert!(secrets.iter().all(|s| !contains(&table, s)));
        assert_eq!(table.dead_bytes(), bytes);
        assert!(table.get(17).is_none());
        // Sliding blocks down leaves no second copy within a chunk's
        // fill either (what `seal` zeroes past the fill, safe code
        // cannot read back).
        revoke(&mut table, "u3").unwrap();
        let moved = record("u39", 39);
        table.compact(|_, _| ());
        assert_eq!(table.dead_bytes(), 0);
        revoke(&mut table, "u39").unwrap();
        assert!(!contains(&table, &moved.public_key));
        assert!(!contains(&table, &moved.helper.seed));
    }

    #[test]
    fn blocks_never_straddle_chunks_and_compaction_frees_them() {
        let mut table = RecordTable::new();
        let mut records = Vec::new();
        // ~300 KiB blocks: three to a chunk; one block larger than a
        // chunk in the middle.
        for u in 0..10u8 {
            let mut r = record(&format!("big{u}"), u);
            r.helper.seed = vec![u; if u == 4 { CHUNK + 5 } else { 300 << 10 }];
            push(&mut table, &r);
            records.push(r);
        }
        let check = |table: &RecordTable, live: &[&EnrollmentRecord]| {
            for (slot, r) in live.iter().enumerate() {
                assert_eq!(table.find(&r.id), Some(slot));
                assert_eq!(helper_of(table, slot, r), r.helper);
            }
            for slot in 0..table.slots() {
                let (chunk, range) = table.extent(slot);
                assert!(range.end <= table.chunks[chunk].len());
                assert!(range.start == 0 || range.end <= CHUNK);
            }
        };
        check(&table, &records.iter().collect::<Vec<_>>());
        assert_eq!(table.chunks.len(), 5); // 3 + 1 | oversized | 3 + 2
        for gone in ["big0", "big1", "big2", "big5", "big8"] {
            revoke(&mut table, gone).unwrap();
        }
        let mut pairs = Vec::new();
        table.compact(|old, new| pairs.push((old, new)));
        assert_eq!(pairs, [(3, 0), (4, 1), (6, 2), (7, 3), (9, 4)]);
        let live: Vec<_> = [3, 4, 6, 7, 9].iter().map(|&u| &records[u]).collect();
        check(&table, &live);
        // big3 | oversized | big6 big7 big9
        let capacities: Vec<_> = table.chunks.iter().map(Vec::capacity).collect();
        // Lengths 1 + 1 + 1 + 5; the patch is dimension 1 and zigzag(−400).
        let oversized = 8 + 4 + 24 + 16 + (CHUNK + 5) + 3;
        assert_eq!(capacities, [CHUNK, oversized, CHUNK]);
        // Revoking the oversized record and compacting gives its chunk back.
        revoke(&mut table, "big4").unwrap();
        table.compact(|_, _| ());
        let live: Vec<_> = [3, 6, 7, 9].iter().map(|&u| &records[u]).collect();
        check(&table, &live);
        assert!(table.chunks.iter().all(|c| c.capacity() == CHUNK));
    }

    #[test]
    fn the_first_slot_list_follows_revokes_and_compaction() {
        // ~300 KiB blocks, three to a chunk, around one larger than a
        // chunk: big0-2 | big3-5 | big6 (oversized) | big7-9 | big10-12.
        let mut table = RecordTable::new();
        let records: Vec<_> = (0..13u8)
            .map(|u| {
                let mut r = record(&format!("big{u}"), u);
                r.helper.seed = vec![u; if u == 6 { CHUNK + 5 } else { 300 << 10 }];
                push(&mut table, &r);
                r
            })
            .collect();
        let oversized = 8 + 4 + 24 + 16 + (CHUNK + 5) + 3;
        // Every slot through `get`, `find`, `restore` and the walk, and
        // the exact heap bytes; `records[u]` lives in slot `s` where
        // `slots[s]` is `Some(u)`.
        let check = |table: &RecordTable, slots: &[Option<usize>], capacities: &[usize]| {
            assert_eq!(table.slots(), slots.len());
            let mut walked = table.live();
            for (slot, &u) in slots.iter().enumerate() {
                let Some(u) = u else {
                    assert!(table.get(slot).is_none(), "slot {slot} is revoked");
                    assert_eq!(table.find(&records[slot].id), None);
                    continue;
                };
                let r = &records[u];
                let stored = table.get(slot).expect("live slot");
                assert_eq!((stored.id(), stored.public_key()), (&*r.id, &*r.public_key));
                assert_eq!(table.find(&r.id), Some(slot));
                assert_eq!(helper_of(table, slot, r), r.helper);
                let (at, record) = walked.next().expect("the walk meets every live slot");
                assert_eq!((at, record.id()), (slot, &*r.id));
            }
            assert!(walked.next().is_none());
            let chunks: Vec<_> = table.chunks.iter().map(Vec::capacity).collect();
            assert_eq!(chunks, capacities);
            assert_eq!(
                table.heap_bytes(),
                table.slots.capacity() * 8
                    + capacities.iter().sum::<usize>()
                    + table.chunks.capacity() * 24
                    + table.starts.capacity() * 4
                    + table.table.capacity() * 4
            );
        };
        let full = [CHUNK, CHUNK, oversized, CHUNK, CHUNK];
        assert_eq!(table.starts, [0, 3, 6, 7, 10]);
        check(&table, &(0..13).map(Some).collect::<Vec<_>>(), &full);

        // The first and last block of the second chunk and every block
        // of the fourth: the list stays, revoked slots keep their place.
        let live = [0, 1, 2, 4, 6, 10, 11, 12];
        for gone in [3, 5, 7, 8, 9] {
            assert_eq!(revoke(&mut table, &records[gone].id), Some(gone));
        }
        assert_eq!(table.starts, [0, 3, 6, 7, 10]);
        let slots: Vec<_> = (0..13).map(|u| live.contains(&u).then_some(u)).collect();
        check(&table, &slots, &full);

        let mut pairs = Vec::new();
        table.compact(|old, new| pairs.push((old, new)));
        let renumbered: Vec<_> = live
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new))
            .collect();
        assert_eq!(pairs, renumbered);
        // big0-2 | big4 | big6 | big10-12: the second chunk keeps its
        // survivor, the oversized chunk stays its own, and the emptied
        // fourth chunk takes the fifth's blocks.
        assert_eq!(table.starts, [0, 3, 4, 5]);
        assert_eq!(table.starts.capacity(), 4);
        check(&table, &live.map(Some), &[CHUNK, CHUNK, oversized, CHUNK]);
    }
}
