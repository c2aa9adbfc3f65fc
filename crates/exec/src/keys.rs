//! Typed hash keys: the one hash table behind hash aggregation, hash
//! join, DISTINCT/UNION and recursive-CTE dedup.
//!
//! A [`KeyBatch`] encodes a chunk's key columns, one column at a time,
//! into row-major `u64` words followed by null-mask words:
//! * BIGINT as its bits, BOOL as 0/1;
//! * DOUBLE as canonical bits: `-0.0` becomes `0.0` and every NaN becomes
//!   one NaN, so grouping, DISTINCT, UNION and CTE dedup treat all NaNs
//!   as one value (PostgreSQL's behaviour);
//! * VARCHAR as the offset of its length-prefixed bytes in an arena.
//!
//! A NULL slot holds 0 and sets its column's bit in the mask, so NULLs
//! group together. Row hashes start from a per-process random seed and
//! are folded column-at-a-time with a multiplicative mixer. A string
//! contributes a SipHash of its bytes under a per-process random key.
//! [`KeyTable`] assigns every distinct key a dense `u32` group id in an
//! open-addressing table; operators keep their per-group state in plain
//! vectors indexed by that id.

use std::sync::Arc;

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::ops::Range;
use std::sync::OnceLock;

use hylite_common::{Chunk, ColumnVector, DataType, HyError, Result, Value};

/// FxHash's multiplier.
const MUL: u64 = 0x517c_c1b7_2722_0a95;
/// Hash contribution of a NULL slot.
const NULL_HASH: u64 = 0x2d35_8dcc_aa6c_78a5;
/// Slot bits holding the upper half of the key's hash.
const TAG: u64 = 0xffff_ffff_0000_0000;
const EMPTY: u64 = 0;

/// The per-process hash keys. Keys are user data: strings are hashed
/// with SipHash under this random key, so clients cannot build distinct
/// strings that share a hash. Numeric words go through the unkeyed
/// mixer: a one-column numeric key never shares its full hash with
/// another (every fold step is a bijection), but crafted multi-column
/// numeric keys can.
fn random_state() -> &'static RandomState {
    static STATE: OnceLock<RandomState> = OnceLock::new();
    STATE.get_or_init(RandomState::new)
}

/// The per-process start of every row hash.
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| random_state().hash_one(0u64))
}

#[inline]
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(MUL)
}

/// Murmur3's 64-bit finalizer: spreads the mixer's state over all bits,
/// so the low bits can index the table and the high bits tag it.
#[inline]
fn finish(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// DOUBLE key bits with `-0.0` folded into `0.0` and one NaN.
#[inline]
fn canonical_f64(x: f64) -> u64 {
    if x == 0.0 {
        0
    } else if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// The column storage a key of type `t` is encoded from (`Null` columns
/// are stored as all-NULL BIGINT).
fn storage_type(t: DataType) -> DataType {
    if t == DataType::Null {
        DataType::Int64
    } else {
        t
    }
}

/// Append `bytes` to `arena` length-prefixed; returns their offset.
fn push_str(arena: &mut Vec<u8>, bytes: &[u8]) -> u64 {
    let offset = arena.len() as u64;
    let len = u32::try_from(bytes.len()).expect("key string longer than 4 GiB");
    arena.extend_from_slice(&len.to_le_bytes());
    arena.extend_from_slice(bytes);
    offset
}

fn str_at(arena: &[u8], offset: u64) -> &[u8] {
    let at = offset as usize;
    let len = u32::from_le_bytes(arena[at..at + 4].try_into().expect("length prefix")) as usize;
    &arena[at + 4..at + 4 + len]
}

/// The word layout shared by a [`KeyTable`] and the batches it takes.
#[derive(Debug)]
struct Layout {
    /// Storage type of each key column.
    types: Vec<DataType>,
    /// Words per key: one per column, then the null-mask words.
    width: usize,
    /// Whether any key column is VARCHAR (otherwise keys compare as
    /// plain word slices).
    has_str: bool,
}

impl Layout {
    fn new(types: &[DataType]) -> Layout {
        let types: Vec<DataType> = types.iter().map(|&t| storage_type(t)).collect();
        Layout {
            width: types.len() + types.len().div_ceil(64).max(1),
            has_str: types.contains(&DataType::Varchar),
            types,
        }
    }

    fn is_null(&self, key: &[u64], c: usize) -> bool {
        key[self.types.len() + c / 64] & (1 << (c % 64)) != 0
    }

    /// Whether key `a` (strings in `arena_a`) equals key `b`.
    fn eq(&self, a: &[u64], arena_a: &[u8], b: &[u64], arena_b: &[u8]) -> bool {
        if !self.has_str {
            return a == b;
        }
        let n = self.types.len();
        if a[n..] != b[n..] {
            return false;
        }
        self.types.iter().enumerate().all(|(c, &t)| {
            if t == DataType::Varchar && !self.is_null(a, c) {
                str_at(arena_a, a[c]) == str_at(arena_b, b[c])
            } else {
                a[c] == b[c]
            }
        })
    }
}

/// One chunk's encoded keys and their hashes.
#[derive(Debug)]
pub struct KeyBatch {
    layout: Layout,
    words: Vec<u64>,
    arena: Vec<u8>,
    hashes: Vec<u64>,
}

impl KeyBatch {
    /// Encode the keys of `rows` from `cols` (one column per key part,
    /// typed as `types`; a column stored as another type is cast first).
    /// Key `i` of the batch is row `rows.start + i`. With `nan_is_null`
    /// a NaN DOUBLE is encoded like NULL: join keys keep IEEE `=`, under
    /// which NaN matches nothing.
    pub fn encode(
        rows: Range<usize>,
        cols: &[&ColumnVector],
        types: &[DataType],
        nan_is_null: bool,
    ) -> Result<KeyBatch> {
        debug_assert_eq!(cols.len(), types.len(), "one column per key type");
        let layout = Layout::new(types);
        let mut batch = KeyBatch {
            words: vec![0; rows.len() * layout.width],
            arena: Vec::new(),
            hashes: vec![seed(); rows.len()],
            layout,
        };
        for (c, &col) in cols.iter().enumerate() {
            let cast;
            let (col, rows) = if col.data_type() == batch.layout.types[c] {
                (col, rows.clone())
            } else {
                cast = col
                    .slice(rows.start, rows.len())
                    .cast_to(batch.layout.types[c])?;
                (&cast, 0..rows.len())
            };
            let validity = col.validity();
            let valid = |i: usize| validity.is_none_or(|v| v.get(rows.start + i));
            match col {
                ColumnVector::Int64 { data, .. } => {
                    for (i, &x) in data[rows.clone()].iter().enumerate() {
                        let w = x as u64;
                        batch.put(i, c, valid(i).then_some((w, w)));
                    }
                }
                ColumnVector::Float64 { data, .. } => {
                    for (i, &x) in data[rows.clone()].iter().enumerate() {
                        let w = canonical_f64(x);
                        let key = valid(i) && !(nan_is_null && x.is_nan());
                        batch.put(i, c, key.then_some((w, w)));
                    }
                }
                ColumnVector::Bool { data, .. } => {
                    for (i, &x) in data[rows.clone()].iter().enumerate() {
                        batch.put(i, c, valid(i).then_some((x as u64, x as u64)));
                    }
                }
                ColumnVector::Varchar { data, .. } => {
                    for (i, s) in data[rows.clone()].iter().enumerate() {
                        let key = valid(i).then(|| {
                            let bytes = s.as_bytes();
                            (
                                push_str(&mut batch.arena, bytes),
                                random_state().hash_one(bytes),
                            )
                        });
                        batch.put(i, c, key);
                    }
                }
            }
        }
        for h in &mut batch.hashes {
            *h = finish(*h);
        }
        Ok(batch)
    }

    /// Store row `i`'s part `c`: `Some((word, hash contribution))`, or
    /// `None` for NULL.
    #[inline]
    fn put(&mut self, i: usize, c: usize, key: Option<(u64, u64)>) {
        let row = i * self.layout.width;
        let part = match key {
            Some((word, part)) => {
                self.words[row + c] = word;
                part
            }
            None => {
                self.words[row + self.layout.types.len() + c / 64] |= 1 << (c % 64);
                NULL_HASH
            }
        };
        self.hashes[i] = mix(self.hashes[i], part);
    }

    /// Number of encoded keys.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True when the batch holds no keys.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Whether any part of key `i` is NULL (or a NaN encoded as NULL).
    pub fn has_null(&self, i: usize) -> bool {
        self.key(i)[self.layout.types.len()..]
            .iter()
            .any(|&m| m != 0)
    }

    fn key(&self, i: usize) -> &[u64] {
        &self.words[i * self.layout.width..(i + 1) * self.layout.width]
    }
}

/// Distinct keys with dense `u32` group ids, in first-insertion order.
#[derive(Debug)]
pub struct KeyTable {
    layout: Layout,
    /// Group `g`'s key at `words[g * width..]`.
    words: Vec<u64>,
    arena: Vec<u8>,
    /// Group `g`'s hash; rebuilding the slots on growth reads only this.
    hashes: Vec<u64>,
    /// Open addressing with linear probing: `EMPTY`, or the hash's upper
    /// half (`TAG`) with `group id + 1` in the lower half.
    slots: Vec<u64>,
}

impl KeyTable {
    /// An empty table for keys of the given types.
    pub fn new(types: &[DataType]) -> KeyTable {
        KeyTable {
            layout: Layout::new(types),
            words: Vec::new(),
            arena: Vec::new(),
            hashes: Vec::new(),
            slots: vec![EMPTY; 16],
        }
    }

    /// Number of distinct keys (group ids run `0..len`).
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True when no key has been inserted.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Heap bytes held — the table's memory-budget charge.
    pub fn heap_bytes(&self) -> u64 {
        ((self.words.capacity() + self.hashes.capacity() + self.slots.capacity()) * 8
            + self.arena.capacity()) as u64
    }

    /// The slot holding batch key `i`'s group (`Ok`), or the empty slot
    /// where it belongs (`Err`).
    fn probe(&self, batch: &KeyBatch, i: usize) -> std::result::Result<u32, usize> {
        let h = batch.hashes[i];
        let mask = self.slots.len() - 1;
        let mut s = h as usize & mask;
        loop {
            let slot = self.slots[s];
            if slot == EMPTY {
                return Err(s);
            }
            if slot & TAG == h & TAG {
                let g = (slot as u32 - 1) as usize;
                let w = self.layout.width;
                let stored = &self.words[g * w..(g + 1) * w];
                if self
                    .layout
                    .eq(stored, &self.arena, batch.key(i), &batch.arena)
                {
                    return Ok(g as u32);
                }
            }
            s = (s + 1) & mask;
        }
    }

    /// The group id of batch key `i`, if present.
    pub fn get(&self, batch: &KeyBatch, i: usize) -> Option<u32> {
        self.probe(batch, i).ok()
    }

    /// The group id of batch key `i`, adding the key if it is new.
    /// Errors when the key would be the table's 2^32 - 1st.
    pub fn insert(&mut self, batch: &KeyBatch, i: usize) -> Result<u32> {
        if (self.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        match self.probe(batch, i) {
            Ok(g) => Ok(g),
            Err(s) => {
                let g = u32::try_from(self.len())
                    .ok()
                    .filter(|&g| g < u32::MAX)
                    .ok_or_else(|| {
                        HyError::Execution("more than 2^32 - 1 distinct hash keys".into())
                    })?;
                let start = self.words.len();
                self.words.extend_from_slice(batch.key(i));
                if self.layout.has_str {
                    for (c, &t) in self.layout.types.iter().enumerate() {
                        let key = &self.words[start..];
                        if t == DataType::Varchar && !self.layout.is_null(key, c) {
                            let bytes = str_at(&batch.arena, key[c]);
                            self.words[start + c] = push_str(&mut self.arena, bytes);
                        }
                    }
                }
                let h = batch.hashes[i];
                self.hashes.push(h);
                self.slots[s] = (h & TAG) | (u64::from(g) + 1);
                Ok(g)
            }
        }
    }

    /// Insert every key of `batch`; `groups[i]` becomes key `i`'s id.
    pub fn insert_batch(&mut self, batch: &KeyBatch, groups: &mut Vec<u32>) -> Result<()> {
        groups.clear();
        for i in 0..batch.len() {
            groups.push(self.insert(batch, i)?);
        }
        Ok(())
    }

    /// Double the slot array and re-place every group by its hash.
    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        let mask = cap - 1;
        self.slots = vec![EMPTY; cap];
        for (g, &h) in self.hashes.iter().enumerate() {
            let mut s = h as usize & mask;
            while self.slots[s] != EMPTY {
                s = (s + 1) & mask;
            }
            self.slots[s] = (h & TAG) | (g as u64 + 1);
        }
    }

    /// Decode key part `c` of every group, in group-id order. DOUBLE
    /// keys come back canonical (`-0.0` as `0.0`).
    pub fn column(&self, c: usize) -> Result<ColumnVector> {
        let t = self.layout.types[c];
        let mut col = ColumnVector::empty(t);
        for key in self.words.chunks_exact(self.layout.width) {
            let word = key[c];
            let v = if self.layout.is_null(key, c) {
                Value::Null
            } else {
                match t {
                    DataType::Float64 => Value::Float(f64::from_bits(word)),
                    DataType::Bool => Value::Bool(word != 0),
                    DataType::Varchar => {
                        Value::Str(String::from_utf8_lossy(str_at(&self.arena, word)).into_owned())
                    }
                    _ => Value::Int(word as i64),
                }
            };
            col.push_value(&v)?;
        }
        Ok(col)
    }

    /// Insert every row of `chunk` as a whole-row key and return the rows
    /// whose key was new, in order, with the columns stored as the
    /// table's types — the dedup step of DISTINCT, UNION and recursive
    /// CTEs.
    pub fn retain_new(&mut self, chunk: &Chunk) -> Result<Chunk> {
        let columns: Vec<Arc<ColumnVector>> = chunk
            .columns()
            .iter()
            .zip(&self.layout.types)
            .map(|(col, &t)| {
                if col.data_type() == t {
                    Ok(Arc::clone(col))
                } else {
                    col.cast_to(t).map(Arc::new)
                }
            })
            .collect::<Result<_>>()?;
        let refs: Vec<&ColumnVector> = columns.iter().map(AsRef::as_ref).collect();
        let batch = KeyBatch::encode(0..chunk.len(), &refs, &self.layout.types, false)?;
        let mut fresh = Vec::new();
        for i in 0..batch.len() {
            let groups = self.len();
            if self.insert(&batch, i)? as usize == groups {
                fresh.push(i);
            }
        }
        if columns.is_empty() {
            return Ok(Chunk::zero_column(fresh.len()));
        }
        let conformed = Chunk::from_arc_columns(columns);
        if fresh.len() == conformed.len() {
            Ok(conformed)
        } else {
            Ok(conformed.take(&fresh))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(cols: &[ColumnVector], nan_is_null: bool) -> KeyBatch {
        let types: Vec<DataType> = cols.iter().map(ColumnVector::data_type).collect();
        let refs: Vec<&ColumnVector> = cols.iter().collect();
        KeyBatch::encode(0..cols[0].len(), &refs, &types, nan_is_null).unwrap()
    }

    fn group_ids(cols: &[ColumnVector]) -> Vec<u32> {
        let types: Vec<DataType> = cols.iter().map(ColumnVector::data_type).collect();
        let mut table = KeyTable::new(&types);
        let mut groups = Vec::new();
        table
            .insert_batch(&batch(cols, false), &mut groups)
            .unwrap();
        groups
    }

    #[test]
    fn nulls_group_together() {
        let mut a = ColumnVector::from_i64(vec![0]);
        a.push_null();
        a.push_null();
        let b = ColumnVector::from_i64(vec![1, 1, 1]);
        assert_eq!(group_ids(&[a, b]), vec![0, 1, 1], "NULL is not 0");
    }

    #[test]
    fn negative_zero_and_nans_are_one_value() {
        let nan2 = f64::from_bits(f64::NAN.to_bits() ^ 1);
        let col = ColumnVector::from_f64(vec![0.0, -0.0, f64::NAN, -f64::NAN, nan2, 1.0]);
        assert_eq!(group_ids(&[col]), vec![0, 0, 1, 1, 1, 2]);
    }

    #[test]
    fn nan_join_keys_are_null() {
        let b = batch(&[ColumnVector::from_f64(vec![f64::NAN, 1.0])], true);
        assert!(b.has_null(0));
        assert!(!b.has_null(1));
    }

    #[test]
    fn distinct_values_differ() {
        assert_eq!(
            group_ids(&[ColumnVector::from_i64(vec![1, 2, 1])]),
            vec![0, 1, 0]
        );
        let mut table = KeyTable::new(&[DataType::Int64]);
        table
            .insert(&batch(&[ColumnVector::from_i64(vec![1])], false), 0)
            .unwrap();
        let two = batch(&[ColumnVector::from_i64(vec![2])], false);
        assert!(table.get(&two, 0).is_none());
    }

    #[test]
    fn strings_compare_by_content() {
        // "ab"+"c" vs "a"+"bc": concatenations agree, keys must not.
        let a = ColumnVector::from_str(vec!["ab", "a", "ab", "", ""]);
        let b = ColumnVector::from_str(vec!["c", "bc", "c", "", "x"]);
        assert_eq!(group_ids(&[a, b]), vec![0, 1, 0, 2, 3]);
    }

    #[test]
    fn grows_across_many_resizes() {
        let n = 100_000i64;
        let keys: Vec<i64> = (0..n).map(|i| i * 7919 % n).collect();
        let strs: Vec<String> = keys.iter().map(|k| format!("s{}", k % 1000)).collect();
        let cols = [
            ColumnVector::from_i64(keys.clone()),
            ColumnVector::from_str(strs),
        ];
        let mut table = KeyTable::new(&[DataType::Int64, DataType::Varchar]);
        let b = batch(&cols, false);
        let mut groups = Vec::new();
        table.insert_batch(&b, &mut groups).unwrap();
        assert_eq!(table.len(), n as usize);
        assert_eq!(groups, (0..n as u32).collect::<Vec<_>>());
        // Every key is found again after all the resizes.
        table.insert_batch(&b, &mut groups).unwrap();
        assert_eq!(table.len(), n as usize);
        assert_eq!(groups, (0..n as u32).collect::<Vec<_>>());
        assert_eq!(table.column(0).unwrap().as_i64().unwrap(), keys.as_slice());
        assert_eq!(
            table.column(1).unwrap().value(5),
            Value::from(format!("s{}", keys[5] % 1000))
        );
    }

    #[test]
    fn colliding_hashes_stay_distinct() {
        // Force every key onto one hash: probing must fall back to
        // comparing the key words, and the bytes of string keys.
        let same_hash = |mut b: KeyBatch| {
            b.hashes.iter_mut().for_each(|h| *h = 0xdead_beef_0000_0007);
            b
        };
        let ints = same_hash(batch(&[ColumnVector::from_i64((0..64).collect())], false));
        let mut table = KeyTable::new(&[DataType::Int64]);
        let mut groups = Vec::new();
        for _ in 0..2 {
            table.insert_batch(&ints, &mut groups).unwrap();
            assert_eq!(table.len(), 64);
            assert_eq!(groups, (0..64).collect::<Vec<u32>>());
        }
        let strs = same_hash(batch(
            &[
                ColumnVector::from_str(vec!["ab", "a", "b", "c", "ab"]),
                ColumnVector::from_str(vec!["c", "bc", "c", "b", "c"]),
            ],
            false,
        ));
        let mut table = KeyTable::new(&[DataType::Varchar, DataType::Varchar]);
        table.insert_batch(&strs, &mut groups).unwrap();
        assert_eq!(groups, vec![0, 1, 2, 3, 0]);
    }

    #[test]
    fn crafted_string_collisions_hash_apart() {
        // Under an unkeyed fold of a string's 8-byte words, a second
        // ASCII string with the same fold is easy to solve for: pick its
        // first word, derive the second, retry until that is ASCII.
        let fold = |b: &[u8]| {
            b.chunks(8).fold(b.len() as u64, |h, w| {
                mix(h, u64::from_le_bytes(w.try_into().unwrap()))
            })
        };
        let a = b"aaaaaaaabbbbbbbb";
        let w = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
        let lanes = mix(16, w(&a[..8])).rotate_left(5) ^ w(&a[8..]);
        let b = (0u64..)
            .map(|k| {
                let first = w(format!("c{k:07}").as_bytes());
                let second = lanes ^ mix(16, first).rotate_left(5);
                [first.to_le_bytes(), second.to_le_bytes()].concat()
            })
            .find(|b| b.is_ascii())
            .unwrap();
        assert_eq!(fold(a), fold(&b), "the unkeyed fold collides");
        let b = String::from_utf8(b).unwrap();
        let batch = batch(
            &[ColumnVector::from_str(vec![
                std::str::from_utf8(a).unwrap(),
                b.as_str(),
            ])],
            false,
        );
        assert_ne!(batch.hashes[0], batch.hashes[1]);
    }

    #[test]
    fn encodes_a_row_range() {
        let mut col = ColumnVector::from_i64(vec![1, 2, 3]);
        col.push_null();
        let refs = [&col];
        let part = KeyBatch::encode(2..4, &refs, &[DataType::Int64], false).unwrap();
        let whole = batch(&[col.clone()], false);
        assert_eq!(part.len(), 2);
        assert_eq!(part.key(0), whole.key(2));
        assert_eq!(part.hashes, whole.hashes[2..]);
        assert!(part.has_null(1));
        // A column cast to the key type is cast over the range only.
        let cast = KeyBatch::encode(1..3, &refs, &[DataType::Float64], false).unwrap();
        let floats = batch(&[ColumnVector::from_f64(vec![1.0, 2.0, 3.0])], false);
        assert_eq!(cast.key(1), floats.key(2));
        assert_eq!(cast.hashes, floats.hashes[1..]);
    }

    #[test]
    fn retain_new_keeps_first_occurrences() {
        let mut table = KeyTable::new(&[DataType::Float64, DataType::Varchar]);
        let chunk = Chunk::new(vec![
            ColumnVector::from_i64(vec![1, 2, 1]),
            ColumnVector::from_str(vec!["a", "a", "a"]),
        ]);
        let out = table.retain_new(&chunk).unwrap();
        assert_eq!(
            out.column(0).as_f64().unwrap(),
            &[1.0, 2.0],
            "cast to DOUBLE"
        );
        assert_eq!(table.retain_new(&chunk).unwrap().len(), 0);
    }

    #[test]
    fn decodes_nulls_and_bools() {
        let mut b = ColumnVector::from_bool(vec![true, false]);
        b.push_null();
        let mut table = KeyTable::new(&[DataType::Bool]);
        let mut groups = Vec::new();
        table
            .insert_batch(&batch(&[b.clone()], false), &mut groups)
            .unwrap();
        assert_eq!(table.column(0).unwrap(), b);
    }
}
