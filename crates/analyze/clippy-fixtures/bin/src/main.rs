//! D11 exempted binary targets; `cargo clippy-lib` lints them too.

fn main() {
    if std::env::args().count() > 3 {
        panic!("usage: tool [ARG] [ARG]"); //~ clippy::panic
    }
}
