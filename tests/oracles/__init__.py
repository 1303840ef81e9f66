"""Reference implementations that tests and benchmarks compare against."""
