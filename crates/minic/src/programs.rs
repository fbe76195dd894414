//! Workload program generators.
//!
//! The paper's realistic benchmark analyzes "a 750-line image manipulation
//! program" (§4.3). The original source is not published, so
//! [`image_program_source`] generates a comparable one: a pipeline of 3×3
//! convolution filters plus histogram/threshold/normalize passes over a
//! 64×64 image, written in mini-C. Only its *shape* matters to the
//! reproduction — the number of statements determines the number of
//! `Attributes` structures the analyses create and the checkpointer
//! traverses.
//!
//! The generated program is a real program: it typechecks and runs under
//! the interpreter, and `checksum()` returns a deterministic value that
//! tests pin down.

use crate::ast::Program;
use crate::parser::parse;
use std::fmt::Write as _;

/// Image side length used by the generated program.
pub const IMAGE_DIM: usize = 32;

/// Number of convolution stages in the default program (tuned so the
/// pretty-printed source is ≈750 lines, like the paper's input).
pub const DEFAULT_FILTERS: usize = 20;

/// Generates the image-manipulation workload source with `filters`
/// convolution stages.
pub fn image_program_source(filters: usize) -> String {
    let n = IMAGE_DIM;
    let total = n * n;
    let mut s = String::new();
    let _ = writeln!(s, "int image[{total}];");
    let _ = writeln!(s, "int work[{total}];");
    let _ = writeln!(s, "int hist[256];");
    let _ = writeln!(s, "int checksum_value;");
    let _ = writeln!(s);

    // `main` is emitted first, callees after their callers: the
    // inter-procedural fixpoints then need multiple passes to converge,
    // giving the analyses the multi-iteration profile the paper's Table 1
    // exploits (one checkpoint per iteration).
    let _ = writeln!(s, "void main() {{");
    let _ = writeln!(s, "    init_image();");
    for k in 0..filters {
        let _ = writeln!(s, "    filter{k}(image, work);");
        let _ = writeln!(s, "    copy_back(work, image);");
    }
    let _ = writeln!(
        s,
        "    histogram(image);
    brighten(image, 3);
    threshold(image, median_cut());
    checksum_value = checksum(image);
}}
"
    );

    // Deterministic pseudo-random content.
    let _ = writeln!(
        s,
        "void init_image() {{
    int i;
    int v;
    v = 7;
    for (i = 0; i < {total}; i = i + 1) {{
        v = (v * 1103 + 12345) % 256;
        if (v < 0) {{
            v = -v;
        }}
        image[i] = v;
    }}
}}
"
    );

    // Convolution stages with varying integer kernels. Kernel weights are
    // derived from the stage index so every function body is distinct.
    for k in 0..filters {
        let w: Vec<i64> = (0..9)
            .map(|t| {
                let raw = ((k * 31 + t * 17 + 3) % 7) as i64 - 2; // -2..=4
                if t == 4 {
                    raw.abs() + 2 // centre weight positive
                } else {
                    raw
                }
            })
            .collect();
        let wsum: i64 = w.iter().sum::<i64>().max(1);
        let _ = writeln!(
            s,
            "void filter{k}(int src[], int dst[]) {{
    int x;
    int y;
    int acc;
    for (y = 1; y < {ym}; y = y + 1) {{
        for (x = 1; x < {xm}; x = x + 1) {{
            acc = src[(y - 1) * {n} + (x - 1)] * {w0};
            acc = acc + src[(y - 1) * {n} + x] * {w1};
            acc = acc + src[(y - 1) * {n} + (x + 1)] * {w2};
            acc = acc + src[y * {n} + (x - 1)] * {w3};
            acc = acc + src[y * {n} + x] * {w4};
            acc = acc + src[y * {n} + (x + 1)] * {w5};
            acc = acc + src[(y + 1) * {n} + (x - 1)] * {w6};
            acc = acc + src[(y + 1) * {n} + x] * {w7};
            acc = acc + src[(y + 1) * {n} + (x + 1)] * {w8};
            acc = acc / {wsum};
            if (acc < 0) {{
                acc = 0;
            }}
            if (acc > 255) {{
                acc = 255;
            }}
            dst[y * {n} + x] = acc;
        }}
    }}
}}
",
            ym = n - 1,
            xm = n - 1,
            w0 = w[0],
            w1 = w[1],
            w2 = w[2],
            w3 = w[3],
            w4 = w[4],
            w5 = w[5],
            w6 = w[6],
            w7 = w[7],
            w8 = w[8],
        );
    }

    let _ = writeln!(
        s,
        "void histogram(int src[]) {{
    int i;
    for (i = 0; i < 256; i = i + 1) {{
        hist[i] = 0;
    }}
    for (i = 0; i < {total}; i = i + 1) {{
        hist[src[i]] = hist[src[i]] + 1;
    }}
}}

void threshold(int src[], int cut) {{
    int i;
    for (i = 0; i < {total}; i = i + 1) {{
        if (src[i] < cut) {{
            src[i] = 0;
        }} else {{
            src[i] = 255;
        }}
    }}
}}

void brighten(int src[], int amount) {{
    int i;
    int v;
    for (i = 0; i < {total}; i = i + 1) {{
        v = src[i] + amount;
        if (v > 255) {{
            v = 255;
        }}
        src[i] = v;
    }}
}}

int median_cut() {{
    int i;
    int seen;
    int half;
    half = {half};
    seen = 0;
    for (i = 0; i < 256; i = i + 1) {{
        seen = seen + hist[i];
        if (seen >= half) {{
            return i;
        }}
    }}
    return 128;
}}

void copy_back(int src[], int dst[]) {{
    int i;
    for (i = 0; i < {total}; i = i + 1) {{
        dst[i] = src[i];
    }}
}}

int checksum(int src[]) {{
    int i;
    int sum;
    sum = 0;
    for (i = 0; i < {total}; i = i + 1) {{
        sum = (sum * 31 + src[i]) % 1000003;
        if (sum < 0) {{
            sum = -sum;
        }}
    }}
    return sum;
}}
",
        half = total / 2,
    );

    s
}

/// The default workload: parsed, ready for typechecking and analysis.
///
/// # Panics
///
/// Never in practice — the generated source always parses; a panic would
/// indicate a generator bug.
pub fn image_program() -> Program {
    parse(&image_program_source(DEFAULT_FILTERS)).expect("generated program parses")
}

/// A matrix workload: multiply, transpose, and trace of `n`×`n` integer
/// matrices. A second analysis input with a different mutation profile
/// (dense nested loops, no conditionals in the hot path).
pub fn matrix_program_source(n: usize) -> String {
    let total = n * n;
    format!(
        "int ma[{total}];
int mb[{total}];
int mc[{total}];
int trace_value;

void init() {{
    int i;
    for (i = 0; i < {total}; i = i + 1) {{
        ma[i] = (i * 7 + 3) % 19;
        mb[i] = (i * 5 + 1) % 17;
    }}
}}

void multiply(int x[], int y[], int z[]) {{
    int i;
    int j;
    int k;
    int acc;
    for (i = 0; i < {n}; i = i + 1) {{
        for (j = 0; j < {n}; j = j + 1) {{
            acc = 0;
            for (k = 0; k < {n}; k = k + 1) {{
                acc = acc + x[i * {n} + k] * y[k * {n} + j];
            }}
            z[i * {n} + j] = acc;
        }}
    }}
}}

void transpose(int x[]) {{
    int i;
    int j;
    int t;
    for (i = 0; i < {n}; i = i + 1) {{
        for (j = i + 1; j < {n}; j = j + 1) {{
            t = x[i * {n} + j];
            x[i * {n} + j] = x[j * {n} + i];
            x[j * {n} + i] = t;
        }}
    }}
}}

int trace(int x[]) {{
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < {n}; i = i + 1) {{
        acc = acc + x[i * {n} + i];
    }}
    return acc;
}}

void main() {{
    init();
    multiply(ma, mb, mc);
    transpose(mc);
    trace_value = trace(mc);
}}
"
    )
}

/// A sorting workload: insertion sort plus a verification pass, a third
/// analysis input whose hot path is dominated by data-dependent
/// conditionals (everything downstream of the comparison is dynamic).
pub fn sort_program_source(n: usize) -> String {
    format!(
        "int data[{n}];
int sorted_ok;

void fill() {{
    int i;
    int v;
    v = 13;
    for (i = 0; i < {n}; i = i + 1) {{
        v = (v * 31 + 17) % 101;
        data[i] = v;
    }}
}}

void insertion_sort(int a[]) {{
    int i;
    int j;
    int key;
    for (i = 1; i < {n}; i = i + 1) {{
        key = a[i];
        j = i - 1;
        while (j >= 0 && a[j] > key) {{
            a[j + 1] = a[j];
            j = j - 1;
        }}
        a[j + 1] = key;
    }}
}}

int is_sorted(int a[]) {{
    int i;
    for (i = 1; i < {n}; i = i + 1) {{
        if (a[i - 1] > a[i]) {{
            return 0;
        }}
    }}
    return 1;
}}

void main() {{
    fill();
    insertion_sort(data);
    sorted_ok = is_sorted(data);
}}
"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;
    use crate::typecheck::typecheck;

    #[test]
    fn image_program_is_about_750_lines() {
        let src = image_program_source(DEFAULT_FILTERS);
        let lines = src.lines().count();
        assert!((600..=900).contains(&lines), "expected roughly 750 lines, got {lines}");
    }

    #[test]
    fn image_program_parses_and_typechecks() {
        let p = image_program();
        typecheck(&p).unwrap();
        assert!(p.stmt_count > 100, "got {}", p.stmt_count);
        assert!(p.functions.len() > 20);
    }

    #[test]
    fn image_program_runs_and_produces_a_stable_checksum() {
        let p = image_program();
        typecheck(&p).unwrap();
        let mut i = Interp::new(&p);
        i.call("main", &[]).unwrap();
        let c1 = i.global_scalar("checksum_value").unwrap();
        // Deterministic: a second interpreter reproduces it.
        let mut j = Interp::new(&p);
        j.call("main", &[]).unwrap();
        assert_eq!(Some(c1), j.global_scalar("checksum_value"));
        assert!(c1 != 0);
    }

    #[test]
    fn filter_count_scales_the_program() {
        let small = image_program_source(2).lines().count();
        let large = image_program_source(10).lines().count();
        assert!(large > small + 8 * 20);
    }

    #[test]
    fn matrix_program_computes_a_stable_trace() {
        let p = parse(&matrix_program_source(6)).unwrap();
        typecheck(&p).unwrap();
        let mut i = Interp::new(&p);
        i.call("main", &[]).unwrap();
        let t1 = i.global_scalar("trace_value").unwrap();
        let mut j = Interp::new(&p);
        j.call("main", &[]).unwrap();
        assert_eq!(Some(t1), j.global_scalar("trace_value"));
    }

    #[test]
    fn transpose_is_an_involution() {
        // transpose(transpose(m)) == m: checked through the interpreter.
        let src = format!(
            "{}\nvoid double_transpose() {{ init(); multiply(ma, mb, mc); transpose(mc); transpose(mc); trace_value = trace(mc); }}",
            matrix_program_source(5)
        );
        let p = parse(&src).unwrap();
        typecheck(&p).unwrap();
        let mut once = Interp::new(&p);
        once.call("main", &[]).unwrap(); // one transpose
        let mut twice = Interp::new(&p);
        twice.call("double_transpose", &[]).unwrap();
        // trace is invariant under transpose, so both agree:
        assert_eq!(once.global_scalar("trace_value"), twice.global_scalar("trace_value"));
    }

    #[test]
    fn sort_program_actually_sorts() {
        let p = parse(&sort_program_source(40)).unwrap();
        typecheck(&p).unwrap();
        let mut i = Interp::new(&p);
        i.call("main", &[]).unwrap();
        assert_eq!(i.global_scalar("sorted_ok"), Some(1));
        let data = i.global_array("data").unwrap();
        assert!(data.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn extra_programs_run_through_the_analysis_corpus_sizes() {
        for src in [matrix_program_source(4), sort_program_source(16)] {
            let p = parse(&src).unwrap();
            typecheck(&p).unwrap();
            assert!(p.stmt_count > 15);
        }
    }
}
