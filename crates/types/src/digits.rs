//! Digits written straight into a `String`, for the canonical keys the
//! knowledge plane is keyed by (`query_key` in `qrs-knowledge`, the ranking
//! fingerprints in `qrs-ranking`): the bytes `format!` would write, without
//! its machinery or a temporary `String` per number.

/// Append `v` as sixteen lowercase hex digits: what `format!("{v:016x}")`
/// writes.
#[inline]
pub fn push_hex16(out: &mut String, v: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(16);
    for shift in (0..16).rev() {
        out.push(char::from(HEX[(v >> (4 * shift)) as usize & 0xf]));
    }
}

/// Append `v` in decimal: what `v.to_string()` writes.
#[inline]
pub fn push_decimal(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut rest = v;
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}
