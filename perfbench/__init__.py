"""A benchmark for xmodloop; see README.md."""
