//! End-to-end run: nothing attached to the program under test.

fn main() {
    std::process::exit(emptcp_perfbench::main(false));
}
