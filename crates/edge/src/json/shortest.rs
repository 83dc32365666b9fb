//! The shortest decimal that reads back as a given `f64`, spelled as Rust's
//! `{}` `Display` spells it.
//!
//! The digits are Ryū's (Adams, *Ryū: fast float-to-string conversion*,
//! PLDI 2018): the value's rounding interval is scaled by a power of ten
//! with one 64 × 128-bit multiplication against a table of powers of
//! five, and digits are then dropped from the scaled value while the
//! interval still holds a shorter one. Of the shortest candidates the one
//! nearest the value is kept; a value exactly halfway between two rounds
//! up, as `Display`'s digit generator rounds it (the published Ryū rounds
//! such a tie to even). The tables are derived at compile time from exact
//! big-integer arithmetic (`pow5_table`, `pow5_inv_table`).
//!
//! The layout is `Display`'s fixed notation: no exponent, a leading `0.`
//! and zeros before the digits of a value below one, zeros after the
//! digits of a value at or beyond their last place, and `-` before a
//! negative value, `-0` included.

/// Bits kept of each power of five and of each inverse.
const POW5_BITS: u32 = 125;

/// Inverses kept: one for each `q` that a value of at least 2^54
/// (`e2 >= 0`) is scaled by, `q <= floor(log10(2^969)) - 1 = 290`.
const POW5_INV_COUNT: usize = 291;

/// Powers kept: one for each `i` that a smaller value is scaled by,
/// `i <= 1076 - (floor(log10(5^1076)) - 1) = 325`.
const POW5_COUNT: usize = 326;

/// `5^i` to the top [`POW5_BITS`] bits: `5^i` shifted so that its highest
/// set bit is bit `POW5_BITS - 1`.
static POW5: [u128; POW5_COUNT] = pow5_table();

/// `floor(2^(bits(5^q) - 1 + POW5_BITS) / 5^q) + 1`: a reciprocal of `5^q`
/// just above it, to [`POW5_BITS`] bits.
static POW5_INV: [u128; POW5_INV_COUNT] = pow5_inv_table();

/// Little-endian 64-bit limbs, wide enough for `2^832` (the dividend the
/// inverses are cut from) and for `5^325` (755 bits).
const LIMBS: usize = 14;

/// The bit length of a limb number.
const fn bit_len(n: &[u64; LIMBS]) -> u32 {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if n[i] != 0 {
            return 64 * i as u32 + 64 - n[i].leading_zeros();
        }
    }
    0
}

/// The 128 bits of a limb number from bit `at` up.
const fn bits_from(n: &[u64; LIMBS], at: u32) -> u128 {
    let (limb, shift) = ((at / 64) as usize, at % 64);
    let mut out = 0u128;
    let mut k = 0;
    // Three limbs cover 128 bits at any shift.
    while k < 3 {
        if limb + k < LIMBS {
            let word = n[limb + k] as u128;
            let place = 64 * k as i32 - shift as i32;
            if place >= 0 {
                if place < 128 {
                    out |= word << place;
                }
            } else {
                out |= word >> -place;
            }
        }
        k += 1;
    }
    out
}

const fn pow5_table() -> [u128; POW5_COUNT] {
    let mut table = [0u128; POW5_COUNT];
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < POW5_COUNT {
        let len = bit_len(&pow);
        table[i] = if len <= POW5_BITS {
            (pow[0] as u128 | (pow[1] as u128) << 64) << (POW5_BITS - len)
        } else {
            bits_from(&pow, len - POW5_BITS)
        };
        // pow *= 5
        let mut carry = 0u128;
        let mut k = 0;
        while k < LIMBS {
            let wide = pow[k] as u128 * 5 + carry;
            pow[k] = wide as u64;
            carry = wide >> 64;
            k += 1;
        }
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u128; POW5_INV_COUNT] {
    // `floor(2^K / 5^q)`, from `2^K` by one exact division by 5 a step
    // (`floor(floor(x / 5^q) / 5) = floor(x / 5^(q + 1))`), then cut to
    // `floor(2^s / 5^q)` by a shift of `K - s`. `K` must be at least the
    // largest `s`, `bits(5^290) - 1 + 125 = 798`.
    const K: u32 = 832;
    let mut table = [0u128; POW5_INV_COUNT];
    let mut quotient = [0u64; LIMBS];
    quotient[(K / 64) as usize] = 1 << (K % 64);
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut q = 0;
    while q < POW5_INV_COUNT {
        let s = bit_len(&pow) - 1 + POW5_BITS;
        table[q] = bits_from(&quotient, K - s) + 1;
        // quotient /= 5, pow *= 5
        let mut rest = 0u128;
        let mut k = LIMBS;
        while k > 0 {
            k -= 1;
            let wide = rest << 64 | quotient[k] as u128;
            quotient[k] = (wide / 5) as u64;
            rest = wide % 5;
        }
        let mut carry = 0u128;
        k = 0;
        while k < LIMBS {
            let wide = pow[k] as u128 * 5 + carry;
            pow[k] = wide as u64;
            carry = wide >> 64;
            k += 1;
        }
        q += 1;
    }
    table
}

/// `bits(5^e)`, exact for `0 <= e <= 3528` (1 at `e = 0`).
fn pow5_bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

/// `floor(log10(2^e))` for `0 <= e <= 1650`.
fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// `floor(log10(5^e))` for `0 <= e <= 2620`.
fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

fn pow5_factor(mut n: u64) -> u32 {
    let mut count = 0;
    while n % 5 == 0 {
        n /= 5;
        count += 1;
    }
    count
}

fn multiple_of_pow5(n: u64, p: u32) -> bool {
    pow5_factor(n) >= p
}

/// `floor(m * mul / 2^j)`, for `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = (mul as u64 as u128) * m as u128;
    let high = (mul >> 64) * m as u128;
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest digits of the positive finite `f64` with these exponent
/// and mantissa fields, and the power of ten they are scaled by: the
/// value reads back from `digits * 10^exp`.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        // Two more bits, so that the interval's ends are integers too.
        (1 - 1023 - 52 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - 1023 - 52 - 2,
            1 << 52 | ieee_mantissa,
        )
    };
    // An even mantissa reads back from its interval's ends as well.
    let accept_bounds = m2 & 1 == 0;
    // In quarter units the value is `mv` and its rounding interval
    // `[mv - 1 - mm_shift, mv + 2]`: the lower half is narrower at a power
    // of two, where the spacing below halves.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    let (mut vr, mut vp, mut vm, e10);
    // Whether `vm` is exact: the lower end is then a candidate itself if
    // `accept_bounds` says so.
    let mut vm_exact = false;
    if e2 >= 0 {
        let e2 = e2 as u32;
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_BITS + pow5_bits(q) - 1;
        let j = k + q - e2;
        let mul = POW5_INV[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // An end is exact when it is a multiple of `5^q`; of `mv` and the
        // two ends at most one is a multiple of 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_exact = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                // An exact upper end that may not be written is left out.
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let minus_e2 = e2.unsigned_abs();
        let q = log10_pow5(minus_e2) - u32::from(minus_e2 > 1);
        e10 = q as i32 + e2;
        let i = minus_e2 - q;
        // `bits(5^i) - POW5_BITS` may be negative; `j` never is.
        let j = (q as i32 - (pow5_bits(i) as i32 - POW5_BITS as i32)) as u32;
        let mul = POW5[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // An end is exact when it has `q` trailing zero bits: the upper
        // end always has one, the lower one exactly when `mm_shift` is 1.
        if q <= 1 {
            if accept_bounds {
                vm_exact = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter candidate, and
    // round what is left to the nearest: a dropped half rounds up.
    let mut removed = 0;
    let mut round_up = false;
    if !vm_exact && vp / 100 > vm / 100 {
        round_up = vr % 100 >= 50;
        (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
        removed += 2;
    }
    while vp / 10 > vm / 10 {
        vm_exact &= vm % 10 == 0;
        round_up = vr % 10 >= 5;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    if vm_exact {
        // An exact lower end that may be written is a candidate itself:
        // drop the zeros it ends in as well.
        while vm % 10 == 0 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // `vr` at the lower end is outside the interval unless that end is
    // exact and may be written.
    let output = vr + u64::from((vr == vm && !vm_exact) || round_up);
    (output, e10 + removed)
}

const ZEROS: &str = "0000000000000000000000000000000000000000000000000000000000000000";

fn push_zeros(out: &mut String, mut n: usize) {
    while n > 0 {
        let run = n.min(ZEROS.len());
        out.push_str(&ZEROS[..run]);
        n -= run;
    }
}

/// Append the finite `n` as `Display` writes it.
pub(super) fn write_shortest(out: &mut String, n: f64) {
    let bits = n.to_bits();
    if n.is_sign_negative() {
        out.push('-');
    }
    let (ieee_mantissa, ieee_exponent) = (bits & ((1 << 52) - 1), (bits >> 52) as u32 & 0x7ff);
    if ieee_mantissa == 0 && ieee_exponent == 0 {
        out.push('0');
        return;
    }
    let (mantissa, exp) = shortest(ieee_mantissa, ieee_exponent);
    let mut buf = [0; 20];
    let digits = super::digits(mantissa, &mut buf);
    // The decimal point sits `point` places after the first digit.
    let point = exp + digits.len() as i32;
    if point <= 0 {
        out.push_str("0.");
        push_zeros(out, point.unsigned_abs() as usize);
        out.push_str(digits);
    } else if (point as usize) < digits.len() {
        let (whole, fraction) = digits.split_at(point as usize);
        out.push_str(whole);
        out.push('.');
        out.push_str(fraction);
    } else {
        out.push_str(digits);
        push_zeros(out, point as usize - digits.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `a * b` for a little-endian limb number and a `u128`.
    fn mul(a: &[u64], b: u128) -> Vec<u64> {
        let mut out = vec![0u64; a.len() + 3];
        for (k, half) in [b as u64, (b >> 64) as u64].into_iter().enumerate() {
            let mut carry = 0u128;
            for (i, &limb) in a.iter().enumerate() {
                let wide = limb as u128 * half as u128 + out[i + k] as u128 + carry;
                out[i + k] = wide as u64;
                carry = wide >> 64;
            }
            out[a.len() + k] = carry as u64;
        }
        out
    }

    fn bits(n: &[u64]) -> u32 {
        let top = n.iter().rposition(|&l| l != 0).unwrap_or(0);
        64 * top as u32 + 64 - n[top].leading_zeros()
    }

    /// The 128 bits of `n` from bit `at` up.
    fn bits_at(n: &[u64], at: u32) -> u128 {
        let (limb, shift) = ((at / 64) as usize, at % 64);
        let word = |k: usize| n.get(limb + k).copied().unwrap_or(0) as u128;
        let low = (word(0) | word(1) << 64) >> shift;
        low | word(2).checked_shl(128 - shift).unwrap_or(0)
    }

    /// The tables are built by dividing down from `2^832` and cutting; this
    /// checks them by multiplying back up: `POW5[i]` is the top 125 bits of
    /// `5^i`, and `POW5_INV[q]` is the least integer whose product with
    /// `5^q` exceeds `2^s`, `s = bits(5^q) - 1 + 125`.
    #[test]
    fn the_tables_hold_the_powers_of_five_they_claim() {
        assert_eq!(POW5[0], 1 << 124);
        assert_eq!(POW5_INV[0], (1 << 125) + 1);
        let mut pow = vec![1u64];
        for i in 1..POW5_COUNT.max(POW5_INV_COUNT) {
            pow = mul(&pow, 5);
            let len = bits(&pow);
            if i < POW5_COUNT {
                let padded = mul(&pow, 1 << POW5_BITS.saturating_sub(len));
                let top = bits_at(&padded, len.saturating_sub(POW5_BITS));
                assert_eq!(POW5[i], top, "5^{i}");
            }
            if i < POW5_INV_COUNT {
                let (inv, s) = (POW5_INV[i], len - 1 + POW5_BITS);
                assert_eq!(bits(&mul(&pow, inv)), s + 1, "1/5^{i} is above 2^s");
                let below = bits(&mul(&pow, inv - 1));
                assert!(below <= s, "1/5^{i} is the least above 2^s");
            }
        }
    }
}
