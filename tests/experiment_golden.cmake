# Run one experiment binary at full scale and compare its stdout,
# byte for byte, with its golden; with SW_UPDATE_GOLDENS set, rewrite
# the golden instead. Registered by sw_experiment_golden() in
# bench/CMakeLists.txt as:
#   cmake -DBINARY=<binary> -DGOLDEN=<golden> -P experiment_golden.cmake
unset(ENV{SW_FAST})
execute_process(COMMAND "${BINARY}"
    OUTPUT_VARIABLE actual RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BINARY} exited with ${status}")
endif()
if(NOT "$ENV{SW_UPDATE_GOLDENS}" STREQUAL "")
    file(WRITE "${GOLDEN}" "${actual}")
    return()
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
    get_filename_component(stem "${GOLDEN}" NAME_WE)
    set(actual_file "${CMAKE_CURRENT_BINARY_DIR}/${stem}.actual")
    file(WRITE "${actual_file}" "${actual}")
    execute_process(COMMAND diff -u "${GOLDEN}" "${actual_file}")
    message(FATAL_ERROR "stdout differs from ${GOLDEN}; a change meant "
        "to move it re-records with SW_UPDATE_GOLDENS=1")
endif()
