# Golden-diff harness for hetparc: runs the full single-program flow on
# tests/data/pipeline.c and byte-compares what it prints and emits with what
# the pre-pipeline flow produces. Guards the refactor invariant that staging
# the compiler changed NOTHING about what a single compile produces.
#
# - stdout and the HTG dot file are compared with the goldens committed in
#   GOLDEN_DIR (pipeline.stdout, pipeline.dot).
# - The annotated source, the MPA parspec and the pre-mapping spec are
#   compared with what the unstaged reference driver writes into
#   WORK_DIR/reference/ (tests/golden_reference.cpp: buildFromSource, one
#   Parallelizer run, the codegen emitters, no pipeline types). Their bytes
#   are not stored in git, so an emitter change that affects both flows
#   alike is not caught here.
#
# Expects: -DHETPARC=<binary> -DREFERENCE=<binary> -DSOURCE=<source.c>
#          -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir>
set(reference_dir "${WORK_DIR}/reference")
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${reference_dir}")

execute_process(
  COMMAND "${HETPARC}" --preset A --simulate
          --emit-annotated "${WORK_DIR}/pipeline.annotated.c"
          --emit-parspec "${WORK_DIR}/pipeline.parspec"
          --emit-premap "${WORK_DIR}/pipeline.premap"
          --emit-dot "${WORK_DIR}/pipeline.dot"
          "${SOURCE}"
  OUTPUT_FILE "${WORK_DIR}/pipeline.stdout"
  RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "hetparc exited with ${exit_code}")
endif()

execute_process(
  COMMAND "${REFERENCE}" "${SOURCE}" "${reference_dir}"
  RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "the reference driver exited with ${exit_code}")
endif()

# A missing file is reported as absent, not as a difference.
function(require_file file what)
  if(NOT EXISTS "${file}")
    message(FATAL_ERROR "${what} ${file} is absent${ARGN}")
  endif()
endfunction()
foreach(artifact stdout dot)
  require_file("${GOLDEN_DIR}/pipeline.${artifact}" "golden file"
               "; it may be git-ignored or not committed")
endforeach()
foreach(artifact stdout dot annotated.c parspec premap)
  require_file("${WORK_DIR}/pipeline.${artifact}" "hetparc output")
endforeach()
foreach(artifact annotated.c parspec premap)
  require_file("${reference_dir}/pipeline.${artifact}" "reference output")
endforeach()

function(compare_artifact expected actual)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${expected}" "${actual}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    get_filename_component(name "${actual}" NAME)
    message(FATAL_ERROR "${name} differs (expected ${expected}, got ${actual})")
  endif()
endfunction()
foreach(artifact stdout dot)
  compare_artifact("${GOLDEN_DIR}/pipeline.${artifact}" "${WORK_DIR}/pipeline.${artifact}")
endforeach()
foreach(artifact annotated.c parspec premap)
  compare_artifact("${reference_dir}/pipeline.${artifact}" "${WORK_DIR}/pipeline.${artifact}")
endforeach()
