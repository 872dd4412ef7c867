"""Benchmark of the ybekit CLI; see README.md."""
