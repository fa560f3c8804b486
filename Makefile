# Mirrors the paper artifact's interface (Appendix A.5):
#   make figure_1 / figure_9 / figure_10 / figure_11a / table_5 / all
# Reports land in reports/out_*.txt, as in the original artifact.

PY ?= python3

JOBS ?= 1

.PHONY: all figure_1 figure_3 figure_9 figure_10 figure_11a figure_11b \
        figure_12 table_4 table_5 ablations extensions test bench clean

figure_1:
	$(PY) -m repro run figure1a figure1b

figure_3:
	$(PY) -m repro run figure3

figure_9:
	$(PY) -m repro run figure9

figure_10:
	$(PY) -m repro run figure10

figure_11a:
	$(PY) -m repro run figure11a

figure_11b:
	$(PY) -m repro run figure11b

figure_12:
	$(PY) -m repro run figure12 figure12_patterns

table_4:
	$(PY) -m repro run table4

table_5:
	$(PY) -m repro run table5

ablations:
	$(PY) -m repro run ablation_striping ablation_coalescing ablation_ddio \
	    ablation_entry_size ablation_binomial sensitivity

extensions:
	$(PY) -m repro run cxl_projection

all:
	$(PY) -m repro all --jobs $(JOBS)

test:
	$(PY) -m pytest tests/

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

clean:
	rm -rf reports .pytest_cache
