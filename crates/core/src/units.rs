//! Simulated-time and size units shared by the timing models.

/// One mebibyte.
pub const MIB: usize = 1024 * 1024;

/// Simulated wall-clock time in seconds.
///
/// All performance results in the reproduction are expressed in `SimTime`,
/// produced by the virtual-time models in `rocnet` and `rocstore` rather
/// than by host wall clocks, so experiments are deterministic (DESIGN.md
/// §4).
pub type SimTime = f64;

/// Format a byte count with a binary-unit suffix (`"64.0 MiB"`).
pub fn fmt_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.1} {}", UNITS[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_each_magnitude() {
        assert_eq!(fmt_bytes(0), "0 B");
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(64 * MIB), "64.0 MiB");
        assert_eq!(fmt_bytes(3 * 1024 * MIB), "3.0 GiB");
    }

    #[test]
    fn fractional_values_render_one_decimal() {
        assert_eq!(fmt_bytes(1536), "1.5 KiB");
    }
}
