//! Shell target for [`nn_bench::suites::report`]; the suite body lives in
//! the library so plain `cargo build` compiles it.

fn main() {
    nn_bench::suites::report();
}
