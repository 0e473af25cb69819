"""Clean liveness corpus: the sanctioned twin of every broken shape.

Deadline-composed network waits and a plain server loop — none of this
may produce a LIV finding.
"""
