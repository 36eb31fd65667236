"""Seeded benchmark of annulus_chroma: workloads, independent checks and tracing."""
