//! Counter-based stochastic-rounding noise: order-independent draws keyed
//! by `(seed, element offset)`.
//!
//! The paper's converter serializes stochastic rounding through a single
//! [`Lfsr16`](crate::Lfsr16) stream, so the noise an element receives
//! depends on *when* it is visited. That is the right model for one
//! hardware converter ([`crate::BfpGroup::quantize`]), but a tensor-level
//! pass would have to visit elements in one reference order and could never
//! shard across workers. [`CounterRng`] removes the ordering dependency:
//! the noise for the element at linear offset `i` is a pure function
//! `mix(seed, i)` (the `tl.randint(seed, offsets)` pattern of GPU SR
//! kernels), so any element's draw is computable at any time, in any
//! order, on any worker — stochastic rounding becomes embarrassingly
//! parallel, and checkpointing the generator shrinks to `(seed, step)`.
//!
//! Construction: a SplitMix64-style finalizer mixes the seed with the
//! offset's *block* index, and consecutive offsets extract disjoint
//! `n`-bit lanes of the mixed 64-bit word — one 3-multiply mix per
//! `⌊64/n⌋`-ish elements (8 for the paper's 8-bit gradient noise), which
//! is what lets stochastic rounding approach nearest-rounding cost even
//! single-threaded (DESIGN.md §12).

use crate::lfsr::BitSource;

/// A stateless counter-based noise generator: `bits_at(offset, n)` is a
/// pure function of `(seed, offset, n)`.
///
/// ```
/// use fast_bfp::CounterRng;
///
/// let rng = CounterRng::new(42);
/// // Draws are positional: the same offset always yields the same noise,
/// // in any order.
/// let (a, b) = (rng.bits_at(7, 8), rng.bits_at(3, 8));
/// assert_eq!(rng.bits_at(3, 8), b);
/// assert_eq!(rng.bits_at(7, 8), a);
/// assert!(a < 256 && b < 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRng {
    seed: u64,
}

/// SplitMix64 finalizer over `seed ⊕ (block · φ)`: three 64-bit multiplies
/// and xor-shifts, statistically strong enough for rounding noise (the
/// uniformity and mean-unbiasedness gates in `crates/bfp/tests/counter_sr.rs`
/// hold with wide margins).
#[inline(always)]
fn mix64(seed: u64, block: u64) -> u64 {
    let mut z = seed ^ block.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `log2` of the number of `n`-bit lanes packed into one mixed word:
/// `2^⌊log2(64/n)⌋` lanes, so `lanes · n ≤ 64` always holds.
#[inline(always)]
fn lane_shift_for(n: u32) -> u32 {
    31 - (64 / n).leading_zeros()
}

impl CounterRng {
    /// Creates a generator from a seed. Every seed (including zero) is a
    /// valid, distinct stream.
    pub fn new(seed: u64) -> Self {
        CounterRng { seed }
    }

    /// The seed — together with a draw cursor this is the generator's
    /// entire checkpointable state.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The `n`-bit (`1..=32`) noise draw for the element at linear
    /// `offset`, in the low bits of the result. Pure: independent of call
    /// order, and `2^⌊log2(64/n)⌋` consecutive offsets share one mixed word
    /// (disjoint bit lanes).
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside `1..=32`.
    #[inline]
    pub fn bits_at(&self, offset: u64, n: u32) -> u32 {
        assert!(
            (1..=32).contains(&n),
            "bits_at supports 1..=32 bits, got {n}"
        );
        let shift = lane_shift_for(n);
        let word = mix64(self.seed, offset >> shift);
        let lane = (offset as u32) & ((1u32 << shift) - 1);
        ((word >> (lane * n)) & ((1u64 << n) - 1)) as u32
    }
}

/// The kernel-facing cursor over a [`CounterRng`]: draws `bits_at(pos, n)`
/// and advances `pos` by the configured stride, so the quantization loops'
/// sequential draw pattern lands each element exactly on its own offset.
/// Caches the current mixed word (consecutive offsets share it), which is
/// what makes stochastic rounding nearly free per element.
#[derive(Debug, Clone)]
pub(crate) struct CounterBits {
    rng: CounterRng,
    origin: u64,
    pos: u64,
    stride: u64,
    cached_block: u64,
    cached_word: u64,
}

impl CounterBits {
    /// A cursor whose local offsets are biased by `origin` — the pass-level
    /// base a caller reserved from its draw counter.
    pub(crate) fn new(rng: CounterRng, origin: u64) -> Self {
        CounterBits {
            rng,
            origin,
            pos: origin,
            stride: 1,
            // Real blocks are `offset >> shift < 2^63`, so MAX never
            // collides; the cache is born valid for that sentinel.
            cached_block: u64::MAX,
            cached_word: 0,
        }
    }
}

impl BitSource for CounterBits {
    /// The `n`-bit draw at the cursor, advancing it by one stride step.
    #[inline(always)]
    fn next_bits(&mut self, n: u32) -> u32 {
        debug_assert!((1..=32).contains(&n));
        let shift = lane_shift_for(n);
        let block = self.pos >> shift;
        if block != self.cached_block {
            self.cached_block = block;
            self.cached_word = mix64(self.rng.seed, block);
        }
        let lane = (self.pos as u32) & ((1u32 << shift) - 1);
        self.pos += self.stride;
        ((self.cached_word >> (lane * n)) & ((1u64 << n) - 1)) as u32
    }
}

impl CounterBits {
    /// Positions the cursor at local element offset `base`, with consecutive
    /// draws `stride` elements apart.
    #[inline(always)]
    pub(crate) fn seek(&mut self, base: u64, stride: u64) {
        self.pos = self.origin + base;
        self.stride = stride;
    }

    /// Advances the cursor by `k` stride steps without drawing (an element
    /// that consumes no noise).
    #[inline(always)]
    pub(crate) fn skip(&mut self, k: u64) {
        self.pos += k * self.stride;
    }

    /// Fills `out` with consecutive 8-bit draws, advancing the cursor by
    /// `out.len()` steps: lane `l` of a mixed word is `word >> (8·l) & 0xFF`,
    /// i.e. byte `l` of its little-endian encoding — so eight consecutive
    /// offsets are one `mix64` plus a `to_le_bytes` copy. This is the form
    /// the branch-free quantization loops consume (DESIGN.md §12). Strided
    /// cursors (the rare column-gather fallback) take the per-draw path.
    pub(crate) fn fill8(&mut self, out: &mut [u8]) {
        if self.stride != 1 {
            for b in out {
                *b = self.next_bits(8) as u8;
            }
            return;
        }
        let mut pos = self.pos;
        let mut i = 0;
        while i < out.len() {
            let lane = (pos & 7) as usize;
            let take = (8 - lane).min(out.len() - i);
            let bytes = mix64(self.rng.seed, pos >> 3).to_le_bytes();
            out[i..i + take].copy_from_slice(&bytes[lane..lane + take]);
            i += take;
            pos += take as u64;
        }
        self.pos = pos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_pure_and_width_bounded() {
        let rng = CounterRng::new(0xDEAD_BEEF);
        for n in 1..=32u32 {
            for off in [0u64, 1, 7, 8, 63, 64, 1 << 20, u64::from(u32::MAX)] {
                let a = rng.bits_at(off, n);
                assert_eq!(a, rng.bits_at(off, n), "n={n} off={off}");
                if n < 32 {
                    assert!(a < 1 << n, "n={n} off={off}: {a}");
                }
            }
        }
    }

    #[test]
    fn cursor_matches_stateless_bits_at_for_any_stride() {
        let rng = CounterRng::new(17);
        for &(base, stride, count) in &[(0u64, 1u64, 64usize), (100, 1, 33), (5, 7, 40), (0, 64, 9)]
        {
            for n in [1u32, 3, 8, 16, 31, 32] {
                let mut bits = CounterBits::new(rng, 1000);
                bits.seek(base, stride);
                for k in 0..count as u64 {
                    assert_eq!(
                        bits.next_bits(n),
                        rng.bits_at(1000 + base + k * stride, n),
                        "n={n} base={base} stride={stride} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn skip_advances_by_stride() {
        let rng = CounterRng::new(3);
        let mut bits = CounterBits::new(rng, 0);
        bits.seek(10, 4);
        bits.skip(3);
        assert_eq!(bits.next_bits(8), rng.bits_at(22, 8));
    }

    #[test]
    fn seeds_produce_distinct_streams() {
        let a = CounterRng::new(1);
        let b = CounterRng::new(2);
        let diff = (0..256u64)
            .filter(|&i| a.bits_at(i, 8) != b.bits_at(i, 8))
            .count();
        assert!(diff > 200, "streams too similar: {diff}/256 differ");
    }

    #[test]
    fn eight_bit_draws_are_roughly_uniform() {
        // Mirror of the Lfsr16 uniformity gate: byte-value histogram over a
        // long positional stream.
        let rng = CounterRng::new(0x1234);
        let mut counts = [0u32; 256];
        let draws = 65536u64 * 2;
        for off in 0..draws {
            counts[rng.bits_at(off, 8) as usize] += 1;
        }
        let expected = draws as f64 / 256.0;
        for (byte, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(
                dev < 0.25,
                "byte {byte} count {c} deviates {dev:.2} from uniform"
            );
        }
    }
}
