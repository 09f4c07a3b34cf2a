//! The shortest round-trip decimal of a finite `f64`, laid out exactly
//! as `Display` lays it out: the float writer behind
//! [`json::push_f64`](crate::json::push_f64).
//!
//! [`d2d`] is Ryu (Ulf Adams, "Ryū: fast float-to-string conversion",
//! PLDI 2018) with the full 128-bit tables. It scales the float and the
//! two ends of its rounding interval to a power of ten (a table entry
//! times the binary mantissa, shifted), then drops decimal digits while
//! the interval still holds a shorter number.
//!
//! **One deliberate deviation from the reference `d2s.c`.** When the
//! float lies exactly halfway between the two nearest shortest
//! candidates, Ryu takes the even one; the Grisu/Dragon pair behind
//! `core::fmt` takes the upper one, and this module prints what
//! `Display` prints. So `d2s.c`'s round-half-even step
//! (`vrIsTrailingZeros && lastRemovedDigit == 5 && vr % 2 == 0`) is left
//! out, and with it the tracking of whether `vr`'s dropped digits were
//! all zero, which only that step reads: `1658206780088562.25` prints as
//! `…562.3`, where reference Ryu prints `…562.2`.
//!
//! The tables are computed at compile time from their definitions by
//! [`pow5_split`], which steps a fixed-width number by one factor of 5
//! per entry. The tests check every entry against its definition with
//! a bignum that only multiplies and compares.

/// `"00"`, `"01"`, …, `"99"`: digits go out two at a time.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
                                  2021222324252627282930313233343536373839\
                                  4041424344454647484950515253545556575859\
                                  6061626364656667686970717273747576777879\
                                  8081828384858687888990919293949596979899";

/// Writes `v` in decimal at the end of `buf` and returns those digits.
pub(crate) fn digits(buf: &mut [u8; 20], mut v: u64) -> &[u8] {
    let mut at = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    &buf[at..]
}

/// Appends finite, non-zero `v` exactly as `Display` prints it: the
/// shortest digits that read back to `v`, in plain decimal with no
/// exponent, so `1e21` is 22 digits and `5e-324` is `0.`, 323 zeros and
/// a `5`.
pub(crate) fn push_shortest(out: &mut String, v: f64) {
    debug_assert!(v.is_finite() && v != 0.0, "{v} has no shortest digits");
    let bits = v.to_bits();
    let (m, e10) = d2d(
        bits & ((1 << MANTISSA_BITS) - 1),
        (bits >> MANTISSA_BITS) as u32 & 0x7ff,
    );
    let mut buf = [0u8; 20];
    let digits = digits(&mut buf, m);
    let len = digits.len();
    // `v` is 0.DIGITS × 10^point: zeros go between "0." and the digits
    // below 1, and after the digits at or above 10^len.
    let point = len as i32 + e10;
    let sign = usize::from(v.is_sign_negative());
    let n = sign
        + if point <= 0 {
            2 + point.unsigned_abs() as usize + len
        } else if (point as usize) < len {
            len + 1
        } else {
            point as usize
        };
    // Every float from 1e-20 to 1e38 fits on the stack; the rest, out
    // to 5e-324's 326 bytes, are rare enough to allocate.
    let mut stack = [b'0'; 40];
    let mut heap;
    let text: &mut [u8] = if n <= stack.len() {
        &mut stack[..n]
    } else {
        heap = vec![b'0'; n];
        &mut heap
    };
    if sign == 1 {
        text[0] = b'-';
    }
    if point <= 0 {
        text[sign + 1] = b'.';
        text[n - len..].copy_from_slice(digits);
    } else if (point as usize) < len {
        let (int, frac) = digits.split_at(point as usize);
        let dot = sign + int.len();
        text[sign..dot].copy_from_slice(int);
        text[dot] = b'.';
        text[dot + 1..].copy_from_slice(frac);
    } else {
        text[sign..sign + len].copy_from_slice(digits);
    }
    out.push_str(std::str::from_utf8(text).expect("digits, '-' and '.' are ASCII"));
}

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Both tables hold 125-bit numbers.
const POW5_BITCOUNT: i32 = 125;

/// The bit length of `5^e`, for `e <= 3528`.
const fn pow5bits(e: u32) -> i32 {
    ((e * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))`, for `e <= 1650`.
fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// `floor(log10(5^e))`, for `e <= 2620`.
fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

fn multiple_of_power_of_5(mut v: u64, p: u32) -> bool {
    for _ in 0..p {
        if !v.is_multiple_of(5) {
            return false;
        }
        v /= 5;
    }
    true
}

/// `floor(m · mul / 2^j)` for a table entry `mul` and `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let lo = u128::from(m) * u128::from(mul as u64);
    let hi = u128::from(m) * (mul >> 64);
    (((lo >> 64) + hi) >> (j - 64)) as u64
}

/// The shortest `(digits, e10)` with `digits × 10^e10` inside the
/// interval of reals that round to the float with these IEEE fields;
/// of several such, the one nearest the float, the upper one on a tie.
/// The float must be finite and non-zero.
fn d2d(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // Two more bits of exponent leave room for the interval's ends.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Parsing rounds half to even, so an even mantissa owns the ends of
    // its interval.
    let accept_bounds = m2 & 1 == 0;
    // The float is mv · 2^e2 and its interval runs from mm to mp; the
    // interval is narrower below a power of two.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    // The three, times 10^-e10, truncated.
    let e10;
    let (mut vr, mut vp, mut vm);
    // Whether the truncation dropped only zeros from vm.
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2 as u32) - u32::from(e2 > 3);
        e10 = q as i32;
        let j = -e2 + q as i32 + POW5_BITCOUNT + pow5bits(q) - 1;
        let mul = POW5_INV_SPLIT[q as usize];
        (vr, vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        // For small q, 5^q may divide the multiplicand and leave the
        // scaled value exact. At most one of mm, mv and mp is a
        // multiple of 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mm, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2 as u32) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let j = q as i32 - (pow5bits(i as u32) - POW5_BITCOUNT);
        let mul = POW5_SPLIT[i as usize];
        (vr, vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        // The product has q trailing zeros if the multiplicand has q
        // trailing zero bits: mv has two, mp one, mm one when
        // mm_shift is 1.
        if q <= 1 {
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval holds a shorter number, keeping
    // the last digit dropped from vr to round with; two at a time
    // first, which is where most of them go.
    let mut removed = 0;
    let mut last_removed = 0;
    if vp / 100 > vm / 100 {
        vm_is_trailing_zeros &= vm % 100 == 0;
        last_removed = vr % 100 / 10;
        (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
        removed = 2;
    }
    while vp / 10 > vm / 10 {
        vm_is_trailing_zeros &= vm % 10 == 0;
        last_removed = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    if vm_is_trailing_zeros {
        // The lower end is itself a short number inside the interval:
        // keep dropping its zeros.
        while vm % 10 == 0 {
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // Here reference Ryu turns `last_removed` from 5 into 4 when the
    // dropped digits were exactly 50…0 and vr is even; `Display` rounds
    // that tie up.
    let round_up = (vr == vm && !vm_is_trailing_zeros) || last_removed >= 5;
    (vr + u64::from(round_up), e10 + removed)
}

/// `POW5_INV_SPLIT[i]` is `floor(2^(len(5^i) - 1 + 125) / 5^i) + 1`, `len` the
/// bit length: `5^-i` scaled to 125 bits and rounded up.
static POW5_INV_SPLIT: [u128; 342] = pow5_split(true);

/// `POW5_SPLIT[i]` is the top 125 bits of `5^i`.
static POW5_SPLIT: [u128; 326] = pow5_split(false);

/// Limbs of the number [`pow5_split`] steps: room for `2^1023`, and for
/// `5^341`'s 792 bits.
const LIMBS: usize = 16;

/// The first `N` entries of `POW5_INV_SPLIT` (`inverse`) or of
/// `POW5_SPLIT`, from their definitions, at compile time.
///
/// `n`, a little-endian number of `LIMBS` 64-bit limbs, is `5^i` at entry
/// `i`: it starts at 1 and is multiplied by 5 once per entry. Or, for
/// `inverse`, it is `floor(2^1023 / 5^i)`: it starts at `2^1023` and is
/// floor-divided by 5 once per entry, and nested floor divisions are one
/// floor division by their product. Either way the entry is `n` shifted
/// to 125 bits: `5^i`'s top bits, or `floor(2^1023 / 5^i)` shifted right
/// to `floor(2^(len(5^i) - 1 + 125) / 5^i)`, plus one.
const fn pow5_split<const N: usize>(inverse: bool) -> [u128; N] {
    let mut table = [0; N];
    let mut n = [0u64; LIMBS];
    if inverse {
        n[LIMBS - 1] = 1 << 63;
    } else {
        n[0] = 1;
    }
    let mut i = 0;
    while i < N {
        let len = pow5bits(i as u32);
        table[i] = if inverse {
            bits_from(&n, 1023 - (len - 1 + POW5_BITCOUNT)) + 1
        } else if len >= POW5_BITCOUNT {
            bits_from(&n, len - POW5_BITCOUNT)
        } else {
            bits_from(&n, 0) << (POW5_BITCOUNT - len)
        };
        // n · 5 from the bottom limb up, or floor(n / 5) from the top
        // limb down.
        let mut carry = 0u128;
        let mut k = 0;
        while k < LIMBS {
            if inverse {
                let at = LIMBS - 1 - k;
                let cur = carry << 64 | n[at] as u128;
                n[at] = (cur / 5) as u64;
                carry = cur % 5;
            } else {
                let cur = n[k] as u128 * 5 + carry;
                n[k] = cur as u64;
                carry = cur >> 64;
            }
            k += 1;
        }
        i += 1;
    }
    table
}

/// Bits `s .. s + 128` of `n`: the low 128 bits of `floor(n / 2^s)`.
const fn bits_from(n: &[u64; LIMBS], s: i32) -> u128 {
    let mut out = 0;
    let mut b = 0;
    while b < 128 {
        let at = s as usize + b;
        if at < 64 * LIMBS {
            out |= (((n[at / 64] >> (at % 64)) & 1) as u128) << b;
        }
        b += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    /// A natural number in little-endian base-2^32 limbs with no zero
    /// limb on top: just enough bignum to check the tables by
    /// multiplying and comparing.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Big(Vec<u32>);

    impl Big {
        fn new(mut limbs: Vec<u32>) -> Big {
            while limbs.last() == Some(&0) {
                limbs.pop();
            }
            Big(limbs)
        }

        fn from_u128(v: u128) -> Big {
            Big::new((0..4).map(|i| (v >> (32 * i)) as u32).collect())
        }

        fn pow2(j: u32) -> Big {
            let mut limbs = vec![0; j as usize / 32 + 1];
            limbs[j as usize / 32] = 1 << (j % 32);
            Big(limbs)
        }

        fn mul(&self, other: &Big) -> Big {
            let mut limbs = vec![0u32; self.0.len() + other.0.len()];
            for (i, &a) in self.0.iter().enumerate() {
                let mut carry = 0u64;
                for (j, &b) in other.0.iter().enumerate() {
                    let t = u64::from(a) * u64::from(b) + u64::from(limbs[i + j]) + carry;
                    limbs[i + j] = t as u32;
                    carry = t >> 32;
                }
                limbs[i + other.0.len()] = carry as u32;
            }
            Big::new(limbs)
        }

        fn bits(&self) -> u32 {
            self.0
                .last()
                .map_or(0, |top| 32 * self.0.len() as u32 - top.leading_zeros())
        }
    }

    impl PartialOrd for Big {
        fn partial_cmp(&self, other: &Big) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Big {
        fn cmp(&self, other: &Big) -> Ordering {
            self.0
                .len()
                .cmp(&other.0.len())
                .then_with(|| self.0.iter().rev().cmp(other.0.iter().rev()))
        }
    }

    #[test]
    fn every_table_entry_meets_its_definition() {
        let bitcount = POW5_BITCOUNT as u32;
        let five = Big::from_u128(5);
        let mut pow5 = Big::from_u128(1);
        for i in 0..POW5_INV_SPLIT.len() {
            let len = pow5.bits();
            assert_eq!(pow5bits(i as u32), len as i32, "bit length of 5^{i}");

            // POW5_INV_SPLIT[i] = floor(2^j / 5^i) + 1, j = len - 1 + 125:
            // (inv - 1) · 5^i <= 2^j < inv · 5^i.
            let inv = POW5_INV_SPLIT[i];
            let two_j = Big::pow2(len - 1 + bitcount);
            assert!(
                Big::from_u128(inv - 1).mul(&pow5) <= two_j,
                "POW5_INV_SPLIT[{i}] too big"
            );
            assert!(
                two_j < Big::from_u128(inv).mul(&pow5),
                "POW5_INV_SPLIT[{i}] too small"
            );

            // POW5_SPLIT[i] is 5^i's top 125 bits: a 125-bit number
            // with split · 2^s <= 5^i < (split + 1) · 2^s, s = len - 125,
            // and exactly 5^i · 2^-s while 5^i is shorter than that.
            if let Some(&split) = POW5_SPLIT.get(i) {
                assert_eq!(
                    Big::from_u128(split).bits(),
                    bitcount,
                    "POW5_SPLIT[{i}]'s length"
                );
                if len >= bitcount {
                    let scale = Big::pow2(len - bitcount);
                    assert!(
                        Big::from_u128(split).mul(&scale) <= pow5,
                        "POW5_SPLIT[{i}] too big"
                    );
                    assert!(
                        pow5 < Big::from_u128(split + 1).mul(&scale),
                        "POW5_SPLIT[{i}] too small"
                    );
                } else {
                    let scaled = pow5.mul(&Big::pow2(bitcount - len));
                    assert_eq!(Big::from_u128(split), scaled, "POW5_SPLIT[{i}]");
                }
            }
            pow5 = pow5.mul(&five);
        }
    }
}
