//! Binary state encoding for the disk-backed frontier.
//!
//! The BFS frontier is the only kernel structure that retains full
//! configurations between levels; spilling cold frontier chunks to disk
//! (see `crate::spill`) requires states to round-trip through a byte
//! encoding. [`StateCodec`] is that encoding: a self-delimiting binary
//! format implemented per state type, compositional through the blanket
//! implementations for primitives, tuples, `Vec`, and `Option` below.
//!
//! The contract every implementation must uphold (pinned by the
//! `codec_props` harness on SplitMix64-generated states):
//!
//! 1. **Round trip**: `decode(encode(s)) == s`, with every observable
//!    field preserved (a lossy codec would silently change verdicts once
//!    a frontier spills).
//! 2. **Self-delimiting**: `decode` consumes exactly the bytes `encode`
//!    produced, even when followed by further records — spill chunks
//!    concatenate records with no framing.
//! 3. **Totality of decode**: malformed or truncated input yields `None`,
//!    never a panic — a damaged spill file fails loudly at the call site,
//!    not undefined-ly here.
//!
//! Multi-byte unsigned integers use LEB128 varints (`i64` adds a zigzag
//! transform), since nearly every integer a configuration holds — object
//! ids, rounds, process indices, small values — fits one byte; fixed
//! 8-byte encodings were measured to double spill volume *and* spill-arm
//! runtime on the consensus workload. `u8` stays a raw byte and `u128`
//! two fixed 64-bit words (digests are uniformly random, where varints
//! expand). `usize` encodes as `u64`, so spill files do not depend on the
//! platform word size.
//!
//! # Persistence and compatibility
//!
//! Spill files are strictly run-private (created, replayed, and unlinked
//! within one exploration), so the wire format above can change freely
//! between builds. Two consumers pin it across *process* boundaries:
//!
//! - **Checkpoint images**: `crate::checkpoint` persists frontiers and
//!   findings in this encoding across process lifetimes, so any change
//!   to an existing encoding here — or to a state type's hand-written
//!   `StateCodec`/[`DeltaCodec`] impl — is a checkpoint file-format
//!   break and must bump `checkpoint::FORMAT_VERSION` (old images are
//!   then *refused* with a version error rather than misread; there is
//!   no migration path — resumability is a crash-tolerance feature, not
//!   an archival one). Purely additive changes (a codec impl for a new
//!   type) need no bump.
//! - **Network frames**: the check service (`slx-server`) frames its
//!   request/progress/verdict messages as length-prefixed records whose
//!   bodies are encoded with these same impls, negotiated by a versioned
//!   stream hello. The same discipline applies at one remove: a change
//!   to an encoding used in a frame body is a protocol break and must
//!   bump the server's `PROTOCOL_VERSION`, so an old client is refused
//!   at the handshake instead of misreading frames. Decode totality
//!   (rule 3) is what lets both consumers treat truncated or hostile
//!   bytes as errors, never panics.
//!
//! This discipline is machine-enforced: `slx-analyze` (a required CI
//! gate) fingerprints every `StateCodec`/`DeltaCodec` impl and persisted
//! struct layout into the checked-in `WIRE_MANIFEST.txt` and fails on
//! any drift that is not paired with the matching version bump plus an
//! explicit `cargo run -p slx-analyze -- --bless` regeneration. See
//! EXPERIMENTS.md, "Wire-schema manifest", for the audit workflow.

/// A state that can be serialized into (and restored from) a
/// self-delimiting binary encoding, enabling the [`crate::Checker`] to
/// spill cold frontier chunks to disk under a memory budget.
pub trait StateCodec: Sized {
    /// Appends the binary encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `input`, advancing the slice
    /// past exactly the bytes [`StateCodec::encode`] wrote. Returns `None`
    /// on malformed or truncated input.
    fn decode(input: &mut &[u8]) -> Option<Self>;
}

/// Splits `count` bytes off the front of `input`.
fn take<'a>(input: &mut &'a [u8], count: usize) -> Option<&'a [u8]> {
    if input.len() < count {
        return None;
    }
    let (head, rest) = input.split_at(count);
    *input = rest;
    Some(head)
}

/// LEB128: seven value bits per byte, high bit = continuation. The
/// single-byte case — almost every integer a configuration holds — is
/// kept branch-light: the codec sits on the spill hot path, where every
/// beyond-budget state round-trips through it.
#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    if v < 0x80 {
        out.push(v as u8);
        return;
    }
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

#[inline]
fn take_varint(input: &mut &[u8]) -> Option<u64> {
    let (&first, rest) = input.split_first()?;
    if first < 0x80 {
        *input = rest;
        return Some(u64::from(first));
    }
    *input = rest;
    let mut v = u64::from(first & 0x7f);
    let mut shift = 7u32;
    loop {
        let (&byte, rest) = input.split_first()?;
        *input = rest;
        // The tenth byte may only carry the final value bit.
        if shift == 63 && byte > 1 {
            return None;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            // Reject overlong (non-minimal) forms: a final zero byte in a
            // multi-byte encoding contributes nothing, so e.g. `0x80 0x00`
            // would alias the valid one-byte `0x00`. `put_varint` never
            // emits such forms; accepting them would let a damaged spill
            // file silently decode as a different valid record.
            if byte == 0 {
                return None;
            }
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

impl StateCodec for u8 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let (&byte, rest) = input.split_first()?;
        *input = rest;
        Some(byte)
    }
}

macro_rules! varint_codec {
    ($($ty:ty),*) => {$(
        impl StateCodec for $ty {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                put_varint(out, u64::from(*self));
            }

            #[inline]
            fn decode(input: &mut &[u8]) -> Option<Self> {
                <$ty>::try_from(take_varint(input)?).ok()
            }
        }
    )*};
}

varint_codec!(u16, u32, u64);

impl StateCodec for u128 {
    fn encode(&self, out: &mut Vec<u8>) {
        // Digests fill all 128 bits uniformly; varints would expand them.
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let bytes = take(input, 16)?;
        Some(u128::from_le_bytes(bytes.try_into().expect("sized")))
    }
}

impl StateCodec for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        // Zigzag so small negative values stay one byte.
        put_varint(out, ((*self << 1) ^ (*self >> 63)) as u64);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let z = take_varint(input)?;
        Some(((z >> 1) as i64) ^ -((z & 1) as i64))
    }
}

impl StateCodec for usize {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }

    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        usize::try_from(take_varint(input)?).ok()
    }
}

impl StateCodec for bool {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl StateCodec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}

    fn decode(_input: &mut &[u8]) -> Option<Self> {
        Some(())
    }
}

impl<A: StateCodec, B: StateCodec> StateCodec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode(input)?, B::decode(input)?))
    }
}

impl<A: StateCodec, B: StateCodec, C: StateCodec> StateCodec for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode(input)?, B::decode(input)?, C::decode(input)?))
    }
}

impl<T: StateCodec> StateCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        let len = u32::try_from(self.len()).expect("frontier states are far below 2^32 elements");
        len.encode(out);
        for item in self {
            item.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(input)? as usize;
        // Reserve, but capped by the bytes actually available (every item
        // consumes at least one): a corrupt length prefix must fail on
        // input exhaustion, not allocate unboundedly.
        let mut items = Vec::with_capacity(len.min(input.len()));
        for _ in 0..len {
            items.push(T::decode(input)?);
        }
        Some(items)
    }
}

impl StateCodec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        let len = u32::try_from(self.len()).expect("strings are far below 2^32 bytes");
        len.encode(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(input)? as usize;
        let bytes = take(input, len)?;
        // Totality: invalid UTF-8 is malformed input, not a panic.
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl<T: StateCodec> StateCodec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(None),
            1 => Some(Some(T::decode(input)?)),
            _ => None,
        }
    }
}

/// Per-replay decode context handed down every
/// [`DeltaCodec::decode_delta`] call. It carries nothing: a state's
/// fields decode from the record and its chunk predecessor alone.
#[derive(Debug, Default)]
pub struct DeltaCtx;

impl DeltaCtx {
    /// The context of one chunk replay.
    #[must_use]
    pub fn new() -> Self {
        DeltaCtx
    }
}

/// Context encoding for spill chunks: each record delta-encoded against
/// its chunk predecessor.
///
/// The disk-backed frontier (`crate::spill`) writes records in push order,
/// and consecutive records of a BFS level are siblings: they share their
/// layouts, most of their memory words, long history prefixes. A
/// [`DeltaCodec`] exploits exactly that — [`DeltaCodec::encode_delta`]
/// receives the previously pushed record and may collapse unchanged
/// fields to a few skip/copy varints, and [`DeltaCodec::decode_delta`]
/// rebuilds them as clones of the predecessor's fields.
///
/// `prev = None` means the record must be **self-contained** (the spill
/// path passes `None` for the first record of every chunk, which is what
/// keeps chunk boundaries independently decodable and replay
/// deterministic).
///
/// The contract, pinned by `codec_props` alongside the [`StateCodec`]
/// laws, for every `prev` in `{None, Some(p)}`:
///
/// 1. **Round trip**: `decode_delta(prev, encode_delta(self, prev)) ==
///    self`, against the *same* predecessor on both sides.
/// 2. **Self-delimiting**: `decode_delta` consumes exactly the bytes
///    `encode_delta` produced.
/// 3. **Determinism**: `encode_delta` is a pure function of `(self,
///    prev)` — chunk boundaries are byte-measured, so spill determinism
///    rides on it.
/// 4. **Totality of decode**: malformed or truncated input yields `None`.
///
/// Every method has a self-contained default (delegating to
/// [`StateCodec`]), so `impl DeltaCodec for X {}` opts a type in with
/// plain behaviour; types with shareable structure override both hooks
/// together.
pub trait DeltaCodec: StateCodec {
    /// Appends the encoding of `self` against the chunk predecessor
    /// `prev` (`None` ⇒ the record must be self-contained).
    fn encode_delta(&self, prev: Option<&Self>, out: &mut Vec<u8>) {
        let _ = prev;
        self.encode(out);
    }

    /// Decodes one value encoded by [`DeltaCodec::encode_delta`] against
    /// the same `prev`, advancing `input` past exactly the bytes written.
    /// Returns `None` on malformed or truncated input — including a delta
    /// record presented without its predecessor.
    fn decode_delta(prev: Option<&Self>, input: &mut &[u8], ctx: &mut DeltaCtx) -> Option<Self> {
        let _ = (prev, ctx);
        Self::decode(input)
    }
}

macro_rules! plain_delta_codec {
    ($($ty:ty),*) => {$(
        impl DeltaCodec for $ty {}
    )*};
}

// Primitives are at most a few bytes; a delta marker would cost as much
// as the value. Strings in this workspace are short identifiers (wire
// request ids, scenario names), not shareable structure.
plain_delta_codec!(u8, u16, u32, u64, u128, i64, usize, bool, (), String);

impl<A: DeltaCodec, B: DeltaCodec> DeltaCodec for (A, B) {
    fn encode_delta(&self, prev: Option<&Self>, out: &mut Vec<u8>) {
        self.0.encode_delta(prev.map(|p| &p.0), out);
        self.1.encode_delta(prev.map(|p| &p.1), out);
    }

    fn decode_delta(prev: Option<&Self>, input: &mut &[u8], ctx: &mut DeltaCtx) -> Option<Self> {
        Some((
            A::decode_delta(prev.map(|p| &p.0), input, ctx)?,
            B::decode_delta(prev.map(|p| &p.1), input, ctx)?,
        ))
    }
}

impl<A: DeltaCodec, B: DeltaCodec, C: DeltaCodec> DeltaCodec for (A, B, C) {
    fn encode_delta(&self, prev: Option<&Self>, out: &mut Vec<u8>) {
        self.0.encode_delta(prev.map(|p| &p.0), out);
        self.1.encode_delta(prev.map(|p| &p.1), out);
        self.2.encode_delta(prev.map(|p| &p.2), out);
    }

    fn decode_delta(prev: Option<&Self>, input: &mut &[u8], ctx: &mut DeltaCtx) -> Option<Self> {
        Some((
            A::decode_delta(prev.map(|p| &p.0), input, ctx)?,
            B::decode_delta(prev.map(|p| &p.1), input, ctx)?,
            C::decode_delta(prev.map(|p| &p.2), input, ctx)?,
        ))
    }
}

impl<T: DeltaCodec> DeltaCodec for Option<T> {
    fn encode_delta(&self, prev: Option<&Self>, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.encode_delta(prev.and_then(Option::as_ref), out);
            }
        }
    }

    fn decode_delta(prev: Option<&Self>, input: &mut &[u8], ctx: &mut DeltaCtx) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(None),
            1 => Some(Some(T::decode_delta(
                prev.and_then(Option::as_ref),
                input,
                ctx,
            )?)),
            _ => None,
        }
    }
}

impl<T: DeltaCodec + PartialEq + Clone> DeltaCodec for Vec<T> {
    fn encode_delta(&self, prev: Option<&Self>, out: &mut Vec<u8>) {
        match prev {
            None => self.encode(out),
            Some(prev) => encode_slice_delta(self, prev, out),
        }
    }

    fn decode_delta(prev: Option<&Self>, input: &mut &[u8], ctx: &mut DeltaCtx) -> Option<Self> {
        match prev {
            None => Self::decode(input),
            Some(prev) => decode_slice_delta(prev, input, ctx),
        }
    }
}

/// Delta-encodes `items` against the predecessor record's `prev` slice:
/// length, then the sparse run of changed entries below the common length
/// — each emitted as a strictly positive index gap followed by the
/// element delta-encoded against its counterpart, terminated by a zero
/// gap — then any tail beyond `prev` self-contained. Unchanged elements
/// cost nothing on the wire and decode as clones of `prev`'s, and the
/// gap-sentinel framing needs only **one** compare pass (this helper sits
/// on the spill push path, where every pushed state walks it) — this is
/// the skip/copy core every slice-shaped layer codec (`Vec`, histories,
/// memory object pools) delegates to. Decode with
/// [`decode_slice_delta`].
pub fn encode_slice_delta<T: DeltaCodec + PartialEq>(items: &[T], prev: &[T], out: &mut Vec<u8>) {
    let common = items.len().min(prev.len());
    encode_slice_delta_runs(items.len(), [(0, items, prev)], &items[common..], out);
}

/// [`encode_slice_delta`] for a sequence of `len` elements that is not
/// one slice: the framing is written here, the elements are fed in
/// stretches. Each of `runs` is `(base, items, prev)` — the elements from
/// index `base` on beside their counterparts in the predecessor, compared
/// up to the shorter of the two — in ascending order of `base`; `tail` is
/// the elements beyond the predecessor's length. An element no run covers
/// is unchanged on the caller's word, which is how a container that shares
/// storage with its predecessor (a copy-on-write pool) skips a stretch it
/// knows to be the predecessor's own without comparing it.
pub fn encode_slice_delta_runs<'a, T: DeltaCodec + PartialEq + 'a>(
    len: usize,
    runs: impl IntoIterator<Item = (usize, &'a [T], &'a [T])>,
    tail: impl IntoIterator<Item = &'a T>,
    out: &mut Vec<u8>,
) {
    let len = u32::try_from(len).expect("frontier states are far below 2^32 elements");
    len.encode(out);
    let mut last = 0usize; // one past the previous changed index
    for (base, items, prev) in runs {
        for (index, (item, old)) in (base..).zip(items.iter().zip(prev)) {
            if item != old {
                (index - last + 1).encode(out);
                item.encode_delta(Some(old), out);
                last = index + 1;
            }
        }
    }
    0usize.encode(out);
    for item in tail {
        item.encode_delta(None, out);
    }
}

/// Decoding counterpart of [`encode_slice_delta`]; rejects gaps that run
/// past the common length (the encoder never produces them).
pub fn decode_slice_delta<T: DeltaCodec + PartialEq + Clone>(
    prev: &[T],
    input: &mut &[u8],
    ctx: &mut DeltaCtx,
) -> Option<Vec<T>> {
    // Peeked for the reservation; `decode_slice_edits` reads it again.
    let len = u32::decode(&mut &**input)? as usize;
    let common = len.min(prev.len());
    // The tail decodes from the input (≥ 1 byte per element), so a corrupt
    // length prefix fails on input exhaustion, never an unbounded reserve.
    let mut items = Vec::with_capacity(len.min(common + input.len()));
    items.extend_from_slice(&prev[..common]);
    decode_slice_edits(
        prev.len(),
        |index| &prev[index],
        input,
        ctx,
        |index, item| {
            if index < common {
                items[index] = item;
            } else {
                items.push(item);
            }
        },
    )?;
    Some(items)
}

/// The edits an [`encode_slice_delta`] record makes to a predecessor of
/// `prev_len` elements, read through `prev` one index at a time (only the
/// entries the record changes are looked up), in index order:
/// `edit(i, item)` for each changed entry below the common length, then
/// for each entry of the tail beyond the predecessor (`i` counts on from
/// `prev_len`). Returns the encoded slice's length, which is below
/// `prev_len` when trailing entries were dropped. A container that shares
/// or summarizes its elements (a copy-on-write pool, a maintained fold)
/// decodes through this and pays per edit, not per element.
pub fn decode_slice_edits<'a, T: DeltaCodec + 'a>(
    prev_len: usize,
    prev: impl Fn(usize) -> &'a T,
    input: &mut &[u8],
    ctx: &mut DeltaCtx,
    mut edit: impl FnMut(usize, T),
) -> Option<usize> {
    let len = u32::decode(input)? as usize;
    let common = len.min(prev_len);
    let mut next = 0usize; // one past the previous changed index
    loop {
        let gap = usize::decode(input)?;
        if gap == 0 {
            break;
        }
        let index = next.checked_add(gap)? - 1;
        if index >= common {
            return None;
        }
        edit(index, T::decode_delta(Some(prev(index)), input, ctx)?);
        next = index + 1;
    }
    for index in common..len {
        edit(index, T::decode_delta(None, input, ctx)?);
    }
    Some(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: StateCodec + PartialEq + std::fmt::Debug>(value: T) {
        let mut buf = Vec::new();
        value.encode(&mut buf);
        let mut input = buf.as_slice();
        assert_eq!(T::decode(&mut input), Some(value));
        assert!(input.is_empty(), "decode must consume exactly the encoding");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u8::MAX);
        round_trip(0xbeefu16);
        round_trip(0xdead_beefu32);
        round_trip(u64::MAX);
        round_trip(u128::MAX - 7);
        round_trip(i64::MIN);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(());
    }

    #[test]
    fn composites_round_trip() {
        round_trip((3u32, 4u32));
        round_trip((1u8, 2u64, 3i64));
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u32>::new());
        round_trip(Some(9u8));
        round_trip(Option::<u8>::None);
        round_trip(vec![(Some(1u32), vec![2u8, 3]), (None, vec![])]);
    }

    #[test]
    fn decode_is_self_delimiting_within_a_stream() {
        let mut buf = Vec::new();
        (7u32, 8u64).encode(&mut buf);
        vec![true, false].encode(&mut buf);
        let mut input = buf.as_slice();
        assert_eq!(<(u32, u64)>::decode(&mut input), Some((7, 8)));
        assert_eq!(Vec::<bool>::decode(&mut input), Some(vec![true, false]));
        assert!(input.is_empty());
    }

    #[test]
    fn truncated_input_yields_none() {
        let mut buf = Vec::new();
        0xdead_beef_dead_beefu64.encode(&mut buf);
        for cut in 0..buf.len() {
            let mut input = &buf[..cut];
            assert_eq!(u64::decode(&mut input), None, "cut {cut}");
        }
        // A length prefix promising more than the input holds must fail.
        let mut buf = Vec::new();
        1000u32.encode(&mut buf);
        buf.push(1);
        let mut input = buf.as_slice();
        assert_eq!(Vec::<u8>::decode(&mut input), None);
    }

    #[test]
    fn strings_round_trip_and_reject_bad_utf8() {
        round_trip(String::new());
        round_trip("of-consensus-safety".to_string());
        round_trip("snowman \u{2603} and beyond \u{10348}".to_string());
        // A length prefix promising more than the input holds must fail.
        let mut buf = Vec::new();
        "abc".to_string().encode(&mut buf);
        for cut in 0..buf.len() {
            let mut input = &buf[..cut];
            assert_eq!(String::decode(&mut input), None, "cut {cut}");
        }
        // Invalid UTF-8 under a valid length is malformed, not a panic.
        let mut buf = Vec::new();
        2u32.encode(&mut buf);
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut input = buf.as_slice();
        assert_eq!(String::decode(&mut input), None);
    }

    #[test]
    fn bad_tags_yield_none() {
        let mut input: &[u8] = &[2];
        assert_eq!(bool::decode(&mut input), None);
        let mut input: &[u8] = &[7];
        assert_eq!(Option::<u8>::decode(&mut input), None);
    }

    #[test]
    fn overlong_varints_are_rejected() {
        // `0x80 0x00` is a two-byte encoding of 0; only `0x00` is valid.
        for overlong in [
            &[0x80, 0x00][..],
            &[0x81, 0x00],
            &[0xff, 0x00],
            &[0x80, 0x80, 0x00],
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00],
        ] {
            let mut input = overlong;
            assert_eq!(u64::decode(&mut input), None, "overlong {overlong:?}");
        }
        // The minimal forms they alias still decode.
        let mut input: &[u8] = &[0x00];
        assert_eq!(u64::decode(&mut input), Some(0));
        let mut input: &[u8] = &[0x81, 0x01];
        assert_eq!(u64::decode(&mut input), Some(0x81));
        // Boundary values survive the canonicality check.
        round_trip(u64::MAX);
        round_trip(0x7fu64);
        round_trip(0x80u64);
    }

    fn delta_round_trip<T: DeltaCodec + PartialEq + Clone + std::fmt::Debug>(
        value: &T,
        prev: Option<&T>,
    ) -> usize {
        let mut buf = Vec::new();
        value.encode_delta(prev, &mut buf);
        let mut again = Vec::new();
        value.encode_delta(prev, &mut again);
        assert_eq!(buf, again, "delta encode must be deterministic");
        let mut input = buf.as_slice();
        let mut ctx = DeltaCtx::new();
        assert_eq!(
            T::decode_delta(prev, &mut input, &mut ctx).as_ref(),
            Some(value)
        );
        assert!(input.is_empty(), "delta decode must consume the encoding");
        buf.len()
    }

    #[test]
    fn delta_defaults_round_trip() {
        delta_round_trip(&7u64, None);
        delta_round_trip(&7u64, Some(&7u64));
        delta_round_trip(&(3u32, 9u64), Some(&(3u32, 8u64)));
        delta_round_trip(&Some(4u8), Some(&None));
        delta_round_trip(&Option::<u8>::None, Some(&Some(1)));
    }

    #[test]
    fn slice_delta_skips_unchanged_elements() {
        let prev = vec![10u64, 20, 30, 40];
        let same = delta_round_trip(&prev.clone(), Some(&prev));
        assert_eq!(same, 2, "an unchanged slice is two varints");
        // One changed element plus an appended tail.
        let next = vec![10u64, 21, 30, 40, 50];
        let bytes = delta_round_trip(&next, Some(&prev));
        let mut full = Vec::new();
        next.encode(&mut full);
        assert!(bytes < full.len(), "delta {bytes} vs full {}", full.len());
        // Truncation below the predecessor's length.
        delta_round_trip(&vec![10u64, 99], Some(&prev));
        delta_round_trip(&Vec::<u64>::new(), Some(&prev));
        delta_round_trip(&next, None);
    }

    #[test]
    fn slice_delta_rejects_bad_changed_gaps() {
        let prev = vec![1u64, 2, 3];
        // A gap running past the common length.
        let mut buf = Vec::new();
        3u32.encode(&mut buf); // len
        9usize.encode(&mut buf); // gap to index 8 >= common 3
        7u64.encode(&mut buf);
        0usize.encode(&mut buf);
        let mut input = buf.as_slice();
        assert_eq!(
            decode_slice_delta::<u64>(&prev, &mut input, &mut DeltaCtx::new()),
            None
        );
        // A second gap overrunning after a valid first entry.
        let mut buf = Vec::new();
        3u32.encode(&mut buf);
        1usize.encode(&mut buf); // index 0
        7u64.encode(&mut buf);
        4usize.encode(&mut buf); // gap to index 4 >= common 3
        8u64.encode(&mut buf);
        0usize.encode(&mut buf);
        let mut input = buf.as_slice();
        assert_eq!(
            decode_slice_delta::<u64>(&prev, &mut input, &mut DeltaCtx::new()),
            None
        );
        // A missing terminator fails on input exhaustion.
        let mut buf = Vec::new();
        3u32.encode(&mut buf);
        1usize.encode(&mut buf);
        7u64.encode(&mut buf);
        let mut input = buf.as_slice();
        assert_eq!(
            decode_slice_delta::<u64>(&prev, &mut input, &mut DeltaCtx::new()),
            None
        );
    }
}
