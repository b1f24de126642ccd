# Smoke test for tools/journal2folded.py: run one real check with
# --journal, fold the journal, and require the flow stage frames in the
# output. Driven from tests/CMakeLists.txt (test name tools.journal2folded).

file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(COMMAND ${QSIMEC_CLI} gen ghz 4 ${WORK_DIR}/g.qasm
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gen failed (${rc})")
endif()

# --no-prescreen: ghz vs itself is decided statically otherwise, and the
# folded output must contain the general flow's stage frames. Two runs: the
# default thread count, and four portfolio workers whose concurrent GC
# pauses must not swallow the stage's self time on any machine.
foreach(threads 0 4)
  set(journal ${WORK_DIR}/run-t${threads}.jsonl)
  execute_process(
    COMMAND ${QSIMEC_CLI} check ${WORK_DIR}/g.qasm ${WORK_DIR}/g.qasm
            --timeout 60 --no-prescreen --threads ${threads}
            --journal ${journal}
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "check --threads ${threads} failed (${rc})")
  endif()

  execute_process(
    COMMAND ${PYTHON3} ${FOLD_SCRIPT} ${journal}
    RESULT_VARIABLE rc OUTPUT_VARIABLE folded ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "journal2folded failed (${rc}): ${err}")
  endif()

  foreach(frame "flow;simulation" "flow;complete")
    if(NOT folded MATCHES "${frame} [0-9]+")
      message(FATAL_ERROR "--threads ${threads}: missing frame '${frame}' in "
                          "folded output:\n${folded}")
    endif()
  endforeach()

  # attribution ran (general tier, DD checkers): its gate-level frames form
  # a second tree under the attr root
  if(NOT folded MATCHES
     "attr;(simulation|alternating);(left|right):g[0-9]+ [0-9]+")
    message(FATAL_ERROR "--threads ${threads}: missing attr;* gate frames in "
                        "folded output:\n${folded}")
  endif()

  # folded counts are integer microseconds: every line is "stack count"
  # (cannot split into a CMake list here — the stack frames themselves
  # contain semicolons)
  if(NOT folded MATCHES "^([^ \n]+ [0-9]+\n)+$")
    message(FATAL_ERROR "--threads ${threads}: malformed folded output:\n"
                        "${folded}")
  endif()
endforeach()

# --format speedscope: a well-formed speedscope JSON profile whose samples
# and weights line up and whose frame indices are in range
execute_process(
  COMMAND ${PYTHON3} ${FOLD_SCRIPT} ${WORK_DIR}/run-t0.jsonl
          --format speedscope -o ${WORK_DIR}/run.speedscope.json
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "journal2folded --format speedscope failed (${rc}): ${err}")
endif()
execute_process(
  COMMAND ${PYTHON3} -c "
import json, sys
d = json.load(open(sys.argv[1]))
p = d['profiles'][0]
assert p['type'] == 'sampled' and p['unit'] == 'microseconds'
assert len(p['samples']) == len(p['weights']) > 0
frames = d['shared']['frames']
assert all(0 <= i < len(frames) for s in p['samples'] for i in s)
assert p['endValue'] == sum(p['weights'])
names = {f['name'] for f in frames}
assert 'flow' in names and 'attr' in names, names
" ${WORK_DIR}/run.speedscope.json
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "speedscope output invalid: ${err}")
endif()
