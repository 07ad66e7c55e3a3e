//! Regenerate the sample XYZ inputs under `sample/` (artifact parity with
//! the paper's `sample/water60.xyz`).
//!
//! ```sh
//! cargo run --release -p mako-bench --bin gen_sample
//! ```

fn main() {
    std::fs::create_dir_all("sample").expect("create sample dir");
    let m = mako_chem::builders::water_cluster(60);
    std::fs::write("sample/water60.xyz", m.to_xyz()).unwrap();
    let w = mako_chem::builders::water();
    std::fs::write("sample/water.xyz", w.to_xyz()).unwrap();
    let g = mako_chem::builders::polyglycine(2);
    std::fs::write("sample/gly2.xyz", g.to_xyz()).unwrap();
    // 3.5x-stretched water: the rescue ladder's pathological input.
    let s = mako_chem::builders::stretched_water(3.5);
    std::fs::write("sample/water_stretched.xyz", s.to_xyz()).unwrap();
    println!(
        "wrote sample/water60.xyz, sample/water.xyz, sample/gly2.xyz, sample/water_stretched.xyz"
    );
}
