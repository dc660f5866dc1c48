//! A column-grouped `PackedMat` from row-major mantissas and scales, for
//! tests that write an operand value by value (the `AlongCol` pack writes
//! its column panels directly; shared by `fast_tensor`'s unit tests and
//! proptests).

use fast_bfp::packed::ColPanels;
use fast_tensor::qgemm::PackedMat;

/// The `rows × cols` matrix of row-major `mans`, groups of `group` down
/// each column with the row-major `⌈rows/group⌉ × cols` `scales`, laid
/// into its [`ColPanels`].
///
/// # Panics
///
/// Panics if `group == 0` or a length does not match the shape.
pub fn col_grouped(
    rows: usize,
    cols: usize,
    group: usize,
    mans: &[i8],
    scales: &[f32],
) -> PackedMat {
    assert!(group > 0, "group size must be positive");
    assert_eq!(mans.len(), rows * cols, "mantissa count mismatch");
    assert_eq!(
        scales.len(),
        rows.div_ceil(group).max(1) * cols,
        "scale count mismatch"
    );
    let p = ColPanels { rows, cols, group };
    let mut bytes = vec![i8::MIN; p.len()];
    let mut panel_scales = vec![0.0f32; p.scales()];
    for (x, &m) in mans.iter().enumerate() {
        let (i, j) = (x / cols, x % cols);
        bytes[p.index(i, j)] = m ^ i8::MIN;
        panel_scales[p.scale_index(i, j)] = scales[i / group * cols + j];
    }
    PackedMat::from_col_panels(rows, cols, group, bytes, panel_scales)
}
