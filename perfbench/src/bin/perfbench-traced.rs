//! Traced run: the per-layer metrics, with every allocation counted.

#[global_allocator]
static ALLOC: emptcp_perfbench::CountingAlloc = emptcp_perfbench::CountingAlloc;

fn main() {
    std::process::exit(emptcp_perfbench::main(true));
}
