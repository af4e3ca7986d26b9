"""The ETKAS and ESP rules stated one record at a time, as plainly as they
read.  The package runs one implementation of them, the array code of
``etkasim.fastmatch`` and ``etkasim.engine``; the tests hold it to this one
rule by rule, on the published match lists, and over whole runs.
"""
