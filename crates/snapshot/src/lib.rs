//! # mi6-snapshot — the checkpoint codec
//!
//! A versioned, dependency-free binary format for machine checkpoints.
//! Every stateful component of the simulator (pipeline structures, caches,
//! queues, DRAM, physical memory) serializes itself through [`SnapWriter`]
//! and reconstructs itself through [`SnapReader`]; the [`SnapState`] trait
//! is the per-type contract. All integers are little-endian; collections
//! are length-prefixed with a `u64`; enums are a one-byte tag followed by
//! the variant's fields. [`snap_struct!`] and [`snap_enum!`] state a
//! record's field order and an enum's tag table once, for both halves.
//!
//! The codec is deliberately hand-rolled (no serde): the simulator is
//! dependency-free by policy, and a checkpoint's byte layout is part of
//! the on-disk contract — [`FORMAT_VERSION`] must be bumped whenever any
//! component changes its serialized shape. A reader learns the version of
//! the body it decodes from the snapshot header
//! ([`SnapReader::set_version`]); the few decoders whose layout changed
//! branch on [`SnapReader::version`], so older snapshots keep loading.
//!
//! Non-determinism guard: hash-ordered containers (`HashMap`/`HashSet`)
//! must be written in sorted key order so identical machine states always
//! produce identical snapshot bytes. The container impls here cover only
//! deterministically ordered std types; map serialization happens at the
//! call sites, sorted.

use std::collections::VecDeque;
use std::fmt;

/// The first four bytes of every snapshot.
pub const MAGIC: [u8; 4] = *b"MI6S";

/// The layout version this build writes. Bump it whenever any component
/// changes its serialized layout, and keep decoding the old layout while
/// snapshots in it can still exist.
///
/// - 1: every physical-memory page as its 4 KiB of raw bytes; every LLC
///   directory line in full.
/// - 2: every page as a 512-bit map of its non-zero 8-byte words followed
///   by those words; a never-filled LLC line as a single presence byte.
pub const FORMAT_VERSION: u32 = 2;

/// The oldest layout version readers still decode. Version 1 survives in
/// committed fixtures and in checkpoint directories written by earlier
/// builds.
pub const MIN_FORMAT_VERSION: u32 = 1;

/// Error produced while decoding or validating a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The snapshot ended before the decoder was done.
    Eof {
        /// Byte offset at which more data was expected.
        at: usize,
    },
    /// The buffer does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The snapshot was written by a codec version this build cannot
    /// decode.
    BadVersion {
        /// Version found in the header.
        found: u32,
        /// Newest version this build decodes (it also decodes every
        /// version down to [`MIN_FORMAT_VERSION`]).
        expected: u32,
    },
    /// The snapshot was taken on a machine whose configuration does not
    /// match the one being restored into.
    ConfigMismatch {
        /// What differed (human-readable).
        what: String,
    },
    /// A decoded value is out of range for its type (corrupt snapshot).
    BadValue {
        /// What failed to decode.
        what: String,
    },
    /// A forked restore needs a quiescent snapshot but in-flight state was
    /// found.
    NotQuiescent {
        /// Which structure still held in-flight state.
        what: String,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Eof { at } => write!(f, "snapshot truncated at byte {at}"),
            SnapError::BadMagic => f.write_str("not an MI6 snapshot (bad magic)"),
            SnapError::BadVersion { found, expected } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads \
                 versions {MIN_FORMAT_VERSION} to {expected})"
            ),
            SnapError::ConfigMismatch { what } => {
                write!(f, "snapshot does not match this machine: {what}")
            }
            SnapError::BadValue { what } => write!(f, "corrupt snapshot: {what}"),
            SnapError::NotQuiescent { what } => write!(
                f,
                "snapshot has in-flight {what}; forking across configurations requires a \
                 memory-quiescent snapshot (see Machine::run_until_mem_quiescent)"
            ),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a over a byte string; used for configuration fingerprints.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian snapshot encoder.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the snapshot bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian i32.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a u64 (portable across hosts).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes raw bytes with no length prefix (fixed-size payloads).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes a four-byte section tag (decode-time sanity anchor).
    pub fn tag(&mut self, tag: &[u8; 4]) {
        self.bytes(tag);
    }
}

/// Little-endian snapshot decoder over a borrowed buffer.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
    version: u32,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`, positioned at the start, decoding the
    /// current [`FORMAT_VERSION`] layout.
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader {
            buf,
            pos: 0,
            version: FORMAT_VERSION,
        }
    }

    /// The layout version of the body being decoded.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Sets the layout version of the rest of the body, as read from its
    /// header (the caller has checked it is one this build decodes).
    pub fn set_version(&mut self, version: u32) {
        self.version = version;
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof { at: self.pos });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian i32.
    pub fn i32(&mut self) -> Result<i32, SnapError> {
        Ok(i32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Reads a u64-encoded `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::BadValue {
            what: format!("usize {v} does not fit this host"),
        })
    }

    /// Reads a bool (must be 0 or 1).
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError::BadValue {
                what: format!("bool byte {other}"),
            }),
        }
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads a collection length and guards it against the remaining
    /// buffer (every element is at least one byte, so a length larger
    /// than the remainder is corruption, not a huge allocation).
    pub fn len(&mut self) -> Result<usize, SnapError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(SnapError::BadValue {
                what: format!("length {n} exceeds remaining {} bytes", self.remaining()),
            });
        }
        Ok(n)
    }

    /// Reads and checks a four-byte section tag.
    pub fn expect_tag(&mut self, tag: &[u8; 4]) -> Result<(), SnapError> {
        let got = self.bytes(4)?;
        if got != tag {
            return Err(SnapError::BadValue {
                what: format!(
                    "expected section {:?}, found {:?}",
                    String::from_utf8_lossy(tag),
                    String::from_utf8_lossy(got)
                ),
            });
        }
        Ok(())
    }

    /// Fails unless every byte has been consumed (trailing garbage check).
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::BadValue {
                what: format!("{} trailing bytes", self.remaining()),
            });
        }
        Ok(())
    }
}

/// Per-type save/load contract.
///
/// `load` must consume exactly the bytes `save` produced, and
/// `load(save(x)) == x` for every reachable state. Geometry-carrying
/// containers (caches, the core) use inherent `save_state`/`restore_state`
/// methods instead, restoring in place into an already-configured
/// structure; this trait is for plain values. Plain records implement it
/// through [`snap_struct!`] and tagged enums through [`snap_enum!`].
pub trait SnapState: Sized {
    /// Appends this value's encoding to `w`.
    fn save(&self, w: &mut SnapWriter);
    /// Decodes one value from `r`.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

macro_rules! prim_impl {
    ($ty:ty, $save:ident, $load:ident) => {
        impl SnapState for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.$save(*self);
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$load()
            }
        }
    };
}

prim_impl!(u8, u8, u8);
prim_impl!(u16, u16, u16);
prim_impl!(u32, u32, u32);
prim_impl!(u64, u64, u64);
prim_impl!(i32, i32, i32);
prim_impl!(usize, usize, usize);
prim_impl!(bool, bool, bool);

/// Implements [`SnapState`] for a plain struct from one field list.
///
/// `save` writes the listed fields in list order and `load` builds the
/// struct reading them back in that same order, so the list is the
/// type's wire order, stated once. A field the list leaves out does not
/// compile unless the optional `runtime { field: value }` arm names it:
/// those fields are never serialized and a restore sets them to `value`.
///
/// ```
/// use mi6_snapshot::{SnapReader, SnapState, SnapWriter};
///
/// #[derive(Debug, PartialEq)]
/// struct Entry {
///     tag: u64,
///     dirty: bool,
///     seen_at: u64,
/// }
/// mi6_snapshot::snap_struct! { Entry { tag, dirty } runtime { seen_at: 0 } }
///
/// let mut w = SnapWriter::new();
/// Entry { tag: 7, dirty: true, seen_at: 99 }.save(&mut w);
/// let bytes = w.finish();
/// assert_eq!(bytes, [7, 0, 0, 0, 0, 0, 0, 0, 1]);
/// let back = Entry::load(&mut SnapReader::new(&bytes)).unwrap();
/// assert_eq!(back, Entry { tag: 7, dirty: true, seen_at: 0 });
/// ```
#[macro_export]
macro_rules! snap_struct {
    (
        $ty:ty { $($field:ident),+ $(,)? }
        $(runtime { $($rt:ident: $val:expr),+ $(,)? })?
    ) => {
        impl $crate::SnapState for $ty {
            fn save(&self, w: &mut $crate::SnapWriter) {
                $($crate::SnapState::save(&self.$field, w);)+
            }

            fn load(
                r: &mut $crate::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::SnapError> {
                ::core::result::Result::Ok(Self {
                    $($field: $crate::SnapState::load(r)?,)+
                    $($($rt: $val,)+)?
                })
            }
        }
    };
}

/// Implements [`SnapState`] for an enum from one tag table.
///
/// Each row maps a one-byte tag to a variant and lists the variant's
/// fields in wire order: `save` writes the tag and then those fields,
/// and `load` reads the tag and rebuilds the variant from the fields
/// read back in the same order. The table is the type's wire format,
/// stated once. A variant the table leaves out does not compile, a
/// repeated tag trips the `unreachable_patterns` lint, and an unknown
/// tag decodes as [`SnapError::BadValue`] naming the type. A struct
/// variant's optional `runtime { field: value }` arm names fields that
/// are never serialized; a restore sets them to `value`.
///
/// ```
/// use mi6_snapshot::{SnapReader, SnapState, SnapWriter};
///
/// #[derive(Debug, PartialEq)]
/// enum Slot {
///     Free,
///     Token(u64),
///     Busy { until: u32, dirty: bool, seen_at: u64 },
/// }
/// mi6_snapshot::snap_enum! {
///     Slot { 0 => Free, 1 => Token(t), 2 => Busy { until, dirty } runtime { seen_at: 0 } }
/// }
///
/// let mut w = SnapWriter::new();
/// Slot::Busy { until: 9, dirty: true, seen_at: 99 }.save(&mut w);
/// let bytes = w.finish();
/// assert_eq!(bytes, [2, 9, 0, 0, 0, 1]);
/// let back = Slot::load(&mut SnapReader::new(&bytes)).unwrap();
/// assert_eq!(back, Slot::Busy { until: 9, dirty: true, seen_at: 0 });
/// assert!(Slot::load(&mut SnapReader::new(&[3])).is_err());
/// ```
#[macro_export]
macro_rules! snap_enum {
    (
        $ty:ty {
            $(
                $tag:literal => $variant:ident
                $(( $($tf:ident),+ $(,)? ))?
                $({ $($sf:ident),+ $(,)? } $(runtime { $($rt:ident: $val:expr),+ $(,)? })?)?
            ),+ $(,)?
        }
    ) => {
        impl $crate::SnapState for $ty {
            fn save(&self, w: &mut $crate::SnapWriter) {
                match self {
                    $(
                        Self::$variant
                        $(( $($tf),+ ))?
                        $({ $($sf,)+ $($($rt: _,)+)? })?
                        => {
                            w.u8($tag);
                            $($($crate::SnapState::save($tf, w);)+)?
                            $($($crate::SnapState::save($sf, w);)+)?
                        }
                    )+
                }
            }

            fn load(
                r: &mut $crate::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::SnapError> {
                ::core::result::Result::Ok(match r.u8()? {
                    $(
                        $tag => {
                            $($(let $tf = $crate::SnapState::load(r)?;)+)?
                            $($(let $sf = $crate::SnapState::load(r)?;)+)?
                            Self::$variant
                            $(( $($tf),+ ))?
                            $({ $($sf,)+ $($($rt: $val,)+)? })?
                        }
                    )+
                    other => {
                        return ::core::result::Result::Err($crate::SnapError::BadValue {
                            what: ::std::format!("{} tag {}", ::core::stringify!($ty), other),
                        })
                    }
                })
            }
        }
    };
}

impl<T: SnapState> SnapState for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.save(w);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            other => Err(SnapError::BadValue {
                what: format!("Option tag {other}"),
            }),
        }
    }
}

impl<T: SnapState> SnapState for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: SnapState> SnapState for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len()?;
        let mut out = VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl<A: SnapState, B: SnapState> SnapState for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: SnapState, B: SnapState, C: SnapState> SnapState for (A, B, C) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

impl<T: SnapState, const N: usize> SnapState for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            v.save(w);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load(r)?);
        }
        out.try_into().map_err(|_| SnapError::BadValue {
            what: "array length".into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: SnapState + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(T::load(&mut r).unwrap(), v);
        r.expect_end().unwrap();
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0xabu8);
        round_trip(0xdeadu16);
        round_trip(0xdead_beefu32);
        round_trip(u64::MAX);
        round_trip(-42i32);
        round_trip(1_234_567usize);
        round_trip(true);
        round_trip(false);
    }

    #[test]
    fn containers_round_trip() {
        round_trip(Some(7u64));
        round_trip(Option::<u64>::None);
        round_trip(vec![1u32, 2, 3]);
        round_trip(VecDeque::from([9u64, 8, 7]));
        round_trip((1u8, 2u64));
        round_trip((1u8, 2u64, true));
        round_trip([5u64; 4]);
    }

    #[test]
    fn truncation_is_eof() {
        let mut w = SnapWriter::new();
        0x1122_3344_5566_7788u64.save(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes[..5]);
        assert!(matches!(u64::load(&mut r), Err(SnapError::Eof { .. })));
    }

    #[test]
    fn bad_bool_and_option_tags() {
        let mut r = SnapReader::new(&[7]);
        assert!(matches!(
            bool::load(&mut r),
            Err(SnapError::BadValue { .. })
        ));
        let mut r = SnapReader::new(&[9]);
        assert!(matches!(
            Option::<u8>::load(&mut r),
            Err(SnapError::BadValue { .. })
        ));
    }

    #[test]
    fn oversized_length_rejected_without_allocating() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            Vec::<u8>::load(&mut r),
            Err(SnapError::BadValue { .. })
        ));
    }

    #[test]
    fn tags_anchor_sections() {
        let mut w = SnapWriter::new();
        w.tag(b"CORE");
        w.u64(1);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        r.expect_tag(b"CORE").unwrap();
        assert_eq!(r.u64().unwrap(), 1);
        let mut r = SnapReader::new(&bytes);
        assert!(r.expect_tag(b"MEMS").is_err());
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"mi6"), fnv1a64(b"mi7"));
    }
}
