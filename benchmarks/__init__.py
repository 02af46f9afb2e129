"""Benchmark package: one module per table/figure of the paper's §VI, and
what they use that the installed ``repro`` does not ship: the compared
systems (``comparators/``), the flows and self-join extensions, the codecs
rows do not use, and the benchmark spine (``spine/``)."""
