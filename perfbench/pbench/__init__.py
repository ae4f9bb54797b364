"""Client-side benchmark of the repro serving stack and research pipeline."""
