//! Decimal text for response numbers, byte-identical to `{}`.
//!
//! [`push_f64`] writes exactly what `format!("{x}")` writes for every
//! `f64`: the shortest digit string that parses back to `x`, laid out
//! without an exponent (`1e21` is `1000000000000000000000`, `2⁻³⁰` is
//! `0.0000000009313225746154785`), `1.0` as `1`, `-0.0` as `-0`, and
//! `NaN`, `inf`, `-inf`. The digits come from Ryu (Adams, *Ryū: fast
//! float-to-string conversion*, PLDI 2018) with one change: when the
//! dropped digits are exactly one half, the kept digits round half up,
//! as std's shortest formatter does, not half to even as reference Ryu
//! does.
//!
//! Ryu's two tables of 125-bit powers of five are computed by `const fn`
//! at compile time from a fixed-size 1024-bit integer, so nothing is
//! built at run time and no table is pasted into the source.
//!
//! [`push_u64`] writes an unsigned integer as `{}` does. Both writers
//! emit digits two at a time from one 200-byte table.

#![forbid(unsafe_code)]

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;

/// Bits kept of each power of five (and of each inverse).
const POW5_BITS: u32 = 125;
/// Entries of `⌊2^j / 5^i⌋ + 1` for `i` in `0..342`, the negative
/// decimal exponents of the largest `f64`s.
const POW5_INV_LEN: usize = 342;
/// Entries of the top 125 bits of `5^i` for `i` in `0..326`, enough
/// for the smallest subnormal.
const POW5_LEN: usize = 326;

/// Limbs of the table builder's integers: 1024 bits hold `5^325` (755
/// bits) and `2^1000`.
const LIMBS: usize = 16;
/// `⌊2^j / 5^i⌋` is read off `⌊2^SCALE / 5^i⌋`; the largest `j` the
/// inverse table needs is 916.
const SCALE: u32 = 1000;

type Big = [u64; LIMBS];

const fn times5(x: Big) -> Big {
    let mut out = [0; LIMBS];
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let p = x[i] as u128 * 5 + carry;
        out[i] = p as u64;
        carry = p >> 64;
        i += 1;
    }
    out
}

/// `⌊x / 5⌋`.
const fn div5(x: Big) -> Big {
    let mut out = [0; LIMBS];
    let mut rem = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let cur = (rem << 64) | x[i] as u128;
        out[i] = (cur / 5) as u64;
        rem = cur % 5;
    }
    out
}

/// The low 128 bits of `x >> shift`.
const fn bits_from(x: &Big, shift: u32) -> u128 {
    let limb = (shift / 64) as usize;
    let off = shift % 64;
    let mut out = 0u128;
    let mut k = 0;
    while k < 3 && limb + k < LIMBS {
        let v = x[limb + k] as u128;
        if k == 0 {
            out |= v >> off;
        } else if 64 * k as u32 - off < 128 {
            out |= v << (64 * k as u32 - off);
        }
        k += 1;
    }
    out
}

const fn split(v: u128) -> [u64; 2] {
    [v as u64, (v >> 64) as u64]
}

/// `[low, high]` words of `⌊2^(pow5bits(i) − 1 + 125) / 5^i⌋ + 1`.
/// Nested floors make `⌊2^j / 5^i⌋ = ⌊⌊2^SCALE / 5^i⌋ / 2^(SCALE − j)⌋`,
/// and `⌊2^SCALE / 5^i⌋` is `i` repeated divisions by five.
const fn pow5_inv_table() -> [[u64; 2]; POW5_INV_LEN] {
    let mut table = [[0; 2]; POW5_INV_LEN];
    let mut q: Big = [0; LIMBS];
    q[(SCALE / 64) as usize] = 1 << (SCALE % 64);
    let mut i = 0;
    while i < POW5_INV_LEN {
        let j = pow5bits(i as i32) - 1 + POW5_BITS;
        table[i] = split(bits_from(&q, SCALE - j) + 1);
        q = div5(q);
        i += 1;
    }
    table
}

/// `[low, high]` words of the top 125 bits of `5^i` (shifted up when
/// `5^i` is shorter).
const fn pow5_table() -> [[u64; 2]; POW5_LEN] {
    let mut table = [[0; 2]; POW5_LEN];
    let mut p: Big = [0; LIMBS];
    p[0] = 1;
    let mut i = 0;
    while i < POW5_LEN {
        let len = pow5bits(i as i32);
        table[i] = split(if len >= POW5_BITS {
            bits_from(&p, len - POW5_BITS)
        } else {
            bits_from(&p, 0) << (POW5_BITS - len)
        });
        p = times5(p);
        i += 1;
    }
    table
}

static POW5_INV_SPLIT: [[u64; 2]; POW5_INV_LEN] = pow5_inv_table();
static POW5_SPLIT: [[u64; 2]; POW5_LEN] = pow5_table();

/// `"00" "01" … "99"`.
static DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Bit length of `5^e` (1 for `e = 0`), for `e` in `0..=3528`.
const fn pow5bits(e: i32) -> u32 {
    ((e as u32 * 1_217_359) >> 19) + 1
}

/// `⌊log₁₀ 2^e⌋` for `e` in `0..=1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log₁₀ 5^e⌋` for `e` in `0..=2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn multiple_of_power_of_5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m × mul / 2^j⌋` for a 125-bit `mul` and `j ≥ 64`.
fn mul_shift(m: u64, mul: &[u64; 2], j: u32) -> u64 {
    let low = m as u128 * mul[0] as u128;
    let high = m as u128 * mul[1] as u128;
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest decimal `(digits, exponent)` with `digits × 10^exponent`
/// inside the rounding interval of the finite, non-zero `f64` with these
/// fields; among shortest candidates the closest, ties rounded up.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // An even mantissa parses back from the interval's bounds too.
    let accept_bounds = m2.is_multiple_of(2);

    // The interval is [mm, mp] around mv, all scaled by 4; the lower
    // gap is half as wide at a power of two.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mm, mp) = (mv - 1 - mm_shift, mv + 2);

    // Scale all three by a power of ten so that the digits to keep are
    // integer parts. Only whether the lower bound was cut exactly
    // matters below: with ties rounded up, whether `vr` was cut exactly
    // never changes the result.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_exact = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let j = (-e2 + q as i32 + POW5_BITS as i32 + pow5bits(q as i32) as i32 - 1) as u32;
        let mul = &POW5_INV_SPLIT[q as usize];
        (vr, vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        // At most one of mm, mv, mp is a multiple of five; dividing by
        // 10^q was exact when it holds 5^q (it holds 2^q already).
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_exact = multiple_of_power_of_5(mm, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let j = (q as i32 - (pow5bits(i) as i32 - POW5_BITS as i32)) as u32;
        let mul = &POW5_SPLIT[i as usize];
        (vr, vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        // Multiplying by 5^i and dropping q ≤ 1 bits is exact: mm has a
        // trailing zero bit exactly when mm_shift is 1, mp always has.
        if q <= 1 {
            if accept_bounds {
                vm_exact = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number.
    let mut removed = 0;
    let mut last_removed = 0;
    let output = if vm_exact {
        // Rare: the lower bound is representable and in the
        // interval, so trailing zeros of vm may be dropped as well.
        while vp / 10 > vm / 10 {
            vm_exact &= vm.is_multiple_of(10);
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_exact {
            while vm.is_multiple_of(10) {
                last_removed = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && !vm_exact) || last_removed >= 5)
    } else {
        // Two digits at a time first: most values lose at least two.
        if vp / 100 > vm / 100 {
            last_removed = vr % 100 / 10;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        vr + u64::from(vr == vm || last_removed >= 5)
    };
    (output, e10 + removed)
}

/// Writes `n` in decimal at the end of `buf` and returns the digits.
fn digits(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII")
}

fn push_zeros(out: &mut String, n: usize) {
    out.extend(std::iter::repeat_n('0', n));
}

/// Appends `n` as `format!("{n}")` writes it.
pub(crate) fn push_u64(out: &mut String, n: u64) {
    out.push_str(digits(n, &mut [0; 20]));
}

/// Appends `x` as `format!("{x}")` writes it.
pub(crate) fn push_f64(out: &mut String, x: f64) {
    let bits = x.to_bits();
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32 & 0x7ff;
    if ieee_exponent == 0x7ff && ieee_mantissa != 0 {
        out.push_str("NaN");
        return;
    }
    if x.is_sign_negative() {
        out.push('-');
    }
    if ieee_exponent == 0x7ff {
        out.push_str("inf");
        return;
    }
    if bits << 1 == 0 {
        out.push('0');
        return;
    }
    let (mantissa, exponent) = shortest(ieee_mantissa, ieee_exponent);
    let mut buf = [0; 20];
    let digits = digits(mantissa, &mut buf);
    // The decimal point sits `point` digits in from the left.
    let len = digits.len() as i32;
    let point = len + exponent;
    if point <= 0 {
        out.push_str("0.");
        push_zeros(out, point.unsigned_abs() as usize);
        out.push_str(digits);
    } else if point < len {
        let (int, frac) = digits.split_at(point as usize);
        out.push_str(int);
        out.push('.');
        out.push_str(frac);
    } else {
        out.push_str(digits);
        push_zeros(out, (point - len) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(x: f64) -> String {
        let mut out = String::new();
        push_f64(&mut out, x);
        out
    }

    fn check(x: f64) {
        assert_eq!(render(x), format!("{x}"), "bits {:#018x}", x.to_bits());
    }

    fn check_bits(bits: u64) {
        check(f64::from_bits(bits));
    }

    /// `check_bits` for many patterns, reusing both buffers.
    fn check_all(patterns: impl Iterator<Item = u64>) {
        use std::fmt::Write as _;
        let (mut ours, mut std) = (String::new(), String::new());
        for bits in patterns {
            let x = f64::from_bits(bits);
            ours.clear();
            std.clear();
            push_f64(&mut ours, x);
            write!(std, "{x}").expect("write to a String");
            assert_eq!(ours, std, "bits {bits:#018x}");
        }
    }

    /// SplitMix64: seeded bit patterns without a dependency.
    fn patterns(seed: u64, n: u64) -> impl Iterator<Item = u64> {
        let mut state = seed;
        (0..n).map(move |_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
    }

    #[test]
    fn every_exponent_with_edge_mantissas_matches_std() {
        let mantissas = [0, 1, 2, 1 << 51, (1 << 52) - 1];
        for exponent in 0..=0x7ffu64 {
            for mantissa in mantissas {
                for sign in [0, 1u64 << 63] {
                    check_bits(sign | exponent << 52 | mantissa);
                }
            }
        }
    }

    #[test]
    fn special_values_match_std() {
        for x in [
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            -1.0,
            0.1,
            1e21,
            1e-7,
        ] {
            check(x);
        }
        assert_eq!(render(-0.0), "-0");
        assert_eq!(render(1.0), "1");
        assert_eq!(render(1e21), "1000000000000000000000");
        assert_eq!(render(f64::NEG_INFINITY), "-inf");
    }

    #[test]
    fn powers_of_ten_and_their_neighbours_match_std() {
        for k in -22..=22 {
            let bits = 10f64.powi(k).to_bits();
            for b in [bits - 1, bits, bits + 1] {
                check_bits(b);
                check_bits(b | 1 << 63);
            }
        }
    }

    #[test]
    fn integers_match_std() {
        for n in 0..=100_000u32 {
            check(f64::from(n));
        }
    }

    #[test]
    fn exact_ties_round_half_up_like_std() {
        // Ryu's reference code rounds these half to even.
        assert_eq!(
            render(f64::from_bits(0x4300_0000_0000_0002)),
            "562949953421312.3"
        );
        assert_eq!(
            render(f64::from_bits(0x3e60_0000_0000_0000)),
            "0.000000029802322387695313"
        );
        check_bits(0x4300_0000_0000_0002);
        check_bits(0x3e60_0000_0000_0000);
    }

    #[test]
    fn random_bit_patterns_match_std() {
        check_all(patterns(0x5eed_f64d, 1_000_000));
    }

    /// Run with `cargo test --release -p rexec-serve --lib -- --ignored`.
    #[test]
    #[ignore = "10^8 patterns: run in release"]
    fn soak_random_bit_patterns_match_std() {
        check_all(patterns(0x50a4_f64d, 100_000_000));
    }

    #[test]
    fn tables_are_truncated_powers_of_five() {
        // 5^0 and 5^1 scaled to 125 bits; 2^125 / 5^1 rounded up.
        assert_eq!(POW5_SPLIT[0], [0, 1 << 60]);
        assert_eq!(POW5_SPLIT[1], [0, 5 << 58]);
        assert_eq!(POW5_INV_SPLIT[0], [1, 1 << 61]);
        let inv5 = (1u128 << 127) / 5 + 1;
        assert_eq!(POW5_INV_SPLIT[1], split(inv5));
        // 5^27 fits in 64 bits: its entry is it, shifted up.
        let p27 = 5u128.pow(27);
        let len = 128 - p27.leading_zeros();
        assert_eq!(len, pow5bits(27));
        assert_eq!(POW5_SPLIT[27], split(p27 << (POW5_BITS - len)));
    }

    #[test]
    fn u64_writer_matches_std() {
        let mut values = vec![0, 9, 10, 99, 100, u64::MAX];
        for k in 1..=19 {
            let p = 10u64.pow(k);
            values.extend([p - 1, p, p + 1]);
        }
        for n in values {
            let mut out = String::new();
            push_u64(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }
}
