import os

# One BLAS thread: the simplex refactorizes small dense blocks, where a
# threaded BLAS only adds synchronization and, under load from other
# processes, runs many times slower.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
