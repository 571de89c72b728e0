"""PageRank tail behavior: heavy-tailed in-degree models, a
distributional fixed-point simulator, graph PageRank, and tail-index
estimation, tied together by closed-form tail predictions.

The package root holds only the version; import from the modules
(prtail.fixedpoint, prtail.theory, ...), so that `import prtail` alone
loads neither numpy nor scipy."""

__version__ = "0.1.0"
