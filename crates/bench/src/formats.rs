//! The number-format zoo evaluated by the paper (Table II columns, Fig 19
//! and Fig 20 series), each paired with the hardware system that executes
//! it.

use fast_hw::SystemConfig;
use fast_nn::LayerPrecision;

/// A named training format with its execution substrate.
#[derive(Debug, Clone, Copy)]
pub struct FormatEntry {
    /// Column/series name as the paper prints it.
    pub name: &'static str,
    /// Per-layer precision assignment used during training.
    pub precision: LayerPrecision,
    /// Hardware system the cost meter charges the run to.
    pub system: fn() -> SystemConfig,
}

/// The full Table II column set.
pub fn table2_formats() -> Vec<FormatEntry> {
    let entry = |name, precision, system: fn() -> SystemConfig| FormatEntry {
        name,
        precision,
        system,
    };
    vec![
        entry("FP32", LayerPrecision::fp32(), SystemConfig::fp32),
        entry("bfloat16", LayerPrecision::bf16(), SystemConfig::bf16),
        entry(
            "Nvidia MP",
            LayerPrecision::nvidia_mp(),
            SystemConfig::nvidia_mp,
        ),
        entry("INT8", LayerPrecision::int8(), SystemConfig::int8),
        entry("INT12", LayerPrecision::int12(), SystemConfig::int12),
        entry("MSFP-12", LayerPrecision::msfp12(), SystemConfig::msfp12),
        entry("LowBFP", LayerPrecision::bfp_fixed(2), SystemConfig::fast),
        entry("MidBFP", LayerPrecision::bfp_fixed(3), SystemConfig::fast),
        entry("HighBFP", LayerPrecision::bfp_fixed(4), SystemConfig::fast),
        entry("HFP8", LayerPrecision::hfp8(), SystemConfig::hfp8),
    ]
}

/// The Table II column called `name`.
///
/// # Panics
///
/// Panics if no column has that name.
pub fn format(name: &str) -> FormatEntry {
    table2_formats()
        .into_iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("no Table II format named {name:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_covers_table2_columns() {
        let names: Vec<&str> = table2_formats().iter().map(|f| f.name).collect();
        for want in [
            "FP32",
            "bfloat16",
            "Nvidia MP",
            "INT8",
            "INT12",
            "MSFP-12",
            "LowBFP",
            "MidBFP",
            "HighBFP",
            "HFP8",
        ] {
            assert!(names.contains(&want), "missing {want}");
            assert_eq!(format(want).name, want);
        }
    }
}
