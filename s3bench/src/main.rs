fn main() {
    std::process::exit(s3bench::cli::main(std::env::args().skip(1).collect()));
}
